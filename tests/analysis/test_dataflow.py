"""Unit tests for the def-use/escape pass behind the CC rules."""

from __future__ import annotations

import pytest

from repro.analysis.dataflow import (
    KIND_LOCK,
    KIND_MUTABLE,
    KIND_SCALAR,
    build_dataflow,
    parse_annotations,
)

from tests.analysis.conftest import analyze


def dataflow(tmp_path, **modules):
    files, graph = analyze(tmp_path, **modules)
    return build_dataflow(files, graph)


class TestAnnotations:
    def test_guarded_by_and_holds_parsed(self):
        lines = [
            "_cached = {}  # repro: guarded-by(_latch)",
            "def evict(self):  # repro: holds(_latch)",
            "plain = {}",
        ]
        parsed = parse_annotations(lines)
        assert parsed == {
            1: {"guarded-by": "_latch"},
            2: {"holds": "_latch"},
        }

    def test_whitespace_and_lookalikes(self):
        parsed = parse_annotations(
            [
                "x = {}  #repro:guarded-by( _lock )",
                "y = {}  # repro is a project name, guarded-by hand",
            ]
        )
        assert parsed == {1: {"guarded-by": "_lock"}}


class TestStateClassification:
    def test_module_state_kinds(self, tmp_path):
        info = dataflow(
            tmp_path,
            mod="""
            import threading

            cache = {}
            _lock = threading.Lock()
            hits = 0
            LIMIT = 64
            label = "name"
            """,
        )
        kinds = {s.name: set(s.kinds) for s in info.states.values()}
        assert kinds["cache"] == {KIND_MUTABLE}
        assert KIND_LOCK in kinds["_lock"]
        assert kinds["hits"] == {KIND_SCALAR}
        assert "LIMIT" not in kinds  # ALL_CAPS constants stay unclassified
        assert "label" not in kinds

    def test_class_and_instance_state(self, tmp_path):
        info = dataflow(
            tmp_path,
            mod="""
            import threading


            class Pool:
                registry = {}

                def __init__(self):
                    self._latch = threading.Lock()
                    self._frames = {}  # repro: guarded-by(_latch)
                    self.hits = 0
            """,
        )
        registry = info.states["mod.Pool.registry"]
        assert registry.scope == "class"
        frames = info.states["mod.Pool._frames"]
        assert frames.scope == "instance"
        assert frames.guard == "_latch"
        assert set(info.states["mod.Pool.hits"].kinds) == {KIND_SCALAR}

    def test_annotation_only_declaration_classifies_through_class(self, tmp_path):
        info = dataflow(
            tmp_path,
            mod="""
            from typing import Optional


            class Plan:
                def __init__(self, seed):
                    self.seed = seed


            _active: Optional[Plan] = None
            """,
        )
        active = info.states["mod._active"]
        assert active.value_class == "mod.Plan"
        assert set(active.kinds) == {KIND_MUTABLE}


class TestAccessTracking:
    SOURCE = """
    import threading

    _lock = threading.Lock()
    jobs = []


    def push(job):
        jobs.append(job)


    def push_locked(job):
        with _lock:
            jobs.append(job)


    def drain():  # repro: holds(_lock)
        while jobs:
            jobs.pop()


    def snapshot():
        return jobs


    def shadowing(jobs):
        jobs = list(jobs)
        jobs.append(1)
        return jobs
    """

    def test_mutcall_writes_and_lock_regions(self, tmp_path):
        info = dataflow(tmp_path, mod=self.SOURCE)
        writes = info.writes_of("mod.jobs")
        by_fn = {w.function.rsplit(".", 1)[1]: w for w in writes}
        assert by_fn["push"].locks_held == frozenset()
        assert by_fn["push"].via == "mutcall"
        assert by_fn["push_locked"].locks_held == {"_lock"}
        assert by_fn["drain"].locks_held == {"_lock"}  # holds() annotation

    def test_local_shadowing_is_not_an_access(self, tmp_path):
        info = dataflow(tmp_path, mod=self.SOURCE)
        assert not any(
            a.function.endswith(".shadowing") for a in info.accesses_of("mod.jobs")
        )

    def test_return_marks_escape(self, tmp_path):
        info = dataflow(tmp_path, mod=self.SOURCE)
        assert info.states["mod.jobs"].escapes

    def test_augassign_is_rmw(self, tmp_path):
        info = dataflow(
            tmp_path,
            mod="""
            seen = 0


            def bump():
                global seen
                seen += 1
            """,
        )
        (write,) = info.writes_of("mod.seen")
        assert write.rmw
        assert write.via == "augassign"

    def test_cross_module_access_through_import(self, tmp_path):
        info = dataflow(
            tmp_path,
            store="""
            frames = {}
            """,
            user="""
            import store


            def put(k, v):
                store.frames[k] = v
            """,
        )
        (write,) = info.writes_of("store.frames")
        assert write.function == "user.put"
        assert write.via == "subscript"


class TestSharing:
    def test_direct_and_factory_sharing(self, tmp_path):
        info = dataflow(
            tmp_path,
            mod="""
            class Registry:
                def __init__(self):
                    self.items = {}


            class Lazy:
                def __init__(self):
                    self.items = {}


            class Private:
                def __init__(self):
                    self.items = {}


            _registry = Registry()
            _lazy = None  # repro: guarded-by(_boot)


            def boot():
                global _lazy
                _lazy = Lazy()


            def local_use():
                return Private().items
            """,
        )
        assert "mod.Registry" in info.shared_classes
        assert "mod.Lazy" in info.shared_classes  # global-factory pattern
        assert "mod.Private" not in info.shared_classes

    def test_transitive_sharing_through_shared_methods(self, tmp_path):
        info = dataflow(
            tmp_path,
            mod="""
            class Slot:
                def __init__(self):
                    self.n = 0


            class Table:
                def __init__(self):
                    self.slots = {}

                def grow(self, key):
                    self.slots[key] = Slot()


            table = Table()
            """,
        )
        assert "mod.Table" in info.shared_classes
        assert "mod.Slot" in info.shared_classes
