"""State-layer behavior: the RW lock and the store registry (no HTTP)."""

from __future__ import annotations

import threading
import time

import pytest

from repro import telemetry
from repro.service.middleware import (
    DocumentConflictError,
    DocumentNotFoundError,
    ValidationError,
)
from repro.service.state import ReadWriteLock, StoreRegistry
from tests.service.conftest import SAMPLE_XML


@pytest.fixture
def registry(tmp_path) -> StoreRegistry:
    return StoreRegistry(str(tmp_path), default_algorithm="ekm", default_limit=64)


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=10)

        def reader():
            with lock.read_locked():
                inside.wait()  # all three readers inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                time.sleep(0.05)
                order.append("writer")

        def reader():
            writer_in.wait(timeout=10)
            with lock.read_locked():
                order.append("reader")

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert order == ["writer", "reader"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def long_reader():
            with lock.read_locked():
                reader_in.set()
                release_reader.wait(timeout=10)
            order.append("reader-out")

        def writer():
            reader_in.wait(timeout=10)
            with lock.write_locked():
                order.append("writer")

        def late_reader():
            reader_in.wait(timeout=10)
            time.sleep(0.05)  # give the writer time to queue up
            with lock.read_locked():
                order.append("late-reader")

        threads = [
            threading.Thread(target=long_reader),
            threading.Thread(target=writer),
            threading.Thread(target=late_reader),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        release_reader.set()
        for thread in threads:
            thread.join(timeout=10)
        # writer preference: the queued writer beats the late reader
        assert order == ["reader-out", "writer", "late-reader"]


class TestStoreRegistry:
    def test_ingest_query_and_info(self, registry):
        info = registry.ingest_document(SAMPLE_XML.encode(), doc_id="d1")
        assert info["status"] == "ready"
        assert info["nodes"] > 0

        payload = registry.query_document("d1", "//keyword", show=3)
        assert payload["results"] == 30
        assert len(payload["values"]) == 3
        assert registry.document_info("d1")["queries"] == 1

    def test_show_query_evaluates_once(self, registry, monkeypatch):
        from repro.query import engine

        parsed = []
        parse = engine.parse_xpath
        monkeypatch.setattr(
            engine, "parse_xpath", lambda text: parsed.append(text) or parse(text)
        )
        registry.ingest_document(SAMPLE_XML.encode(), doc_id="d1")
        plain = registry.query_document("d1", "//keyword")
        with telemetry.capture() as reg:
            shown = registry.query_document("d1", "//keyword", show=3)
            runs = [s for s in reg.trace if s.name == "query.run"]
            counted = reg.counters["query.runs"].value
        assert len(runs) == 1 and counted == 1
        assert runs[0].attrs["index"] == "window"
        # the values come from the measured run's own node list
        assert parsed == ["//keyword"] * 2
        assert len(shown.pop("values")) == 3
        assert shown == plain

    def test_auto_ids_are_sequential(self, registry):
        first = registry.ingest_document(SAMPLE_XML.encode())
        second = registry.ingest_document(SAMPLE_XML.encode())
        assert first["id"] == "doc-1"
        assert second["id"] == "doc-2"

    def test_conflicts_and_missing_documents(self, registry):
        registry.ingest_document(SAMPLE_XML.encode(), doc_id="d1")
        with pytest.raises(DocumentConflictError):
            registry.ingest_document(SAMPLE_XML.encode(), doc_id="d1")
        with pytest.raises(DocumentNotFoundError):
            registry.query_document("ghost", "//a")
        with pytest.raises(DocumentNotFoundError):
            registry.ingest_document(SAMPLE_XML.encode(), doc_id="ghost", resume=True)

    def test_failed_ingest_records_error_and_delete_clears_it(self, registry):
        with pytest.raises(Exception):
            registry.ingest_document(b"<broken", doc_id="bad")
        info = registry.document_info("bad")
        assert info["status"] == "failed"
        assert "error" in info
        registry.delete_document("bad")
        with pytest.raises(DocumentNotFoundError):
            registry.document_info("bad")

    def test_journaled_ingest_cleans_up_journal_on_success(self, registry, tmp_path):
        registry.ingest_document(SAMPLE_XML.encode(), doc_id="j", journal=True)
        assert list(tmp_path.glob("*.journal")) == []
        assert registry.document_info("j")["status"] == "ready"

    @pytest.mark.parametrize(
        "doc_id",
        [
            "../escaped",
            "a/b",
            ".hidden",
            "-flag",
            "a b",
            pytest.param("", id="empty"),
            pytest.param("x" * 129, id="too-long"),
        ],
    )
    def test_document_id_that_is_no_file_name_is_rejected(self, tmp_path, doc_id):
        journal_dir = tmp_path / "journals"
        journal_dir.mkdir()
        registry = StoreRegistry(
            str(journal_dir), default_algorithm="ekm", default_limit=64
        )
        with pytest.raises(ValidationError, match="document id"):
            # a truncated body fails the load, which is when a journal
            # file stays behind at the path built from the id
            registry.ingest_document(b"<a><b>", doc_id=doc_id, journal=True)
        assert registry.list_documents() == []
        assert [p.name for p in tmp_path.iterdir()] == ["journals"]
        assert list(journal_dir.iterdir()) == []

    def test_status_counts(self, registry):
        registry.ingest_document(SAMPLE_XML.encode(), doc_id="ok")
        with pytest.raises(Exception):
            registry.ingest_document(b"<broken", doc_id="bad")
        assert registry.status_counts() == {"ready": 1, "loading": 0, "failed": 1}
