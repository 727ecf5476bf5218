"""Recovery from logs that hold several committed transactions.

Flushes checkpoint only once the log reaches ``CHECKPOINT_BYTES``, so a
crash usually finds many committed transactions in the log, and a record
can have several after-images there. Redo must install only each
record's newest image: these tests crash a multi-flush script at every
fault-point hit, recover cold and warm, and resume to the control's final
bytes; pin a case where replaying a superseded image would move a record
to another page; and bound the log's size over a long script.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro import telemetry
from repro.errors import InjectedFaultError
from repro.faults import FaultPlan, FaultRule, active
from repro.faults.matrix import _apply_batch, _update_script
from repro.partition.interval import Partitioning
from repro.recovery import WriteAheadLog, read_wal, recover, recover_store
from repro.recovery import wal as wal_mod
from repro.storage import DocumentStore, StorageConfig, StoreUpdater
from repro.storage.reconstruct import verify_store_integrity
from repro.xmlio import parse_tree
from tests.recovery.conftest import (
    LIMIT,
    build_store,
    store_fingerprint,
    surviving_pages,
)
from tests.storage.oracles import assert_members_match_scan, assert_pages_match_scan

CONFIG = StorageConfig(record_limit=LIMIT)
BATCHES = 6
SCRIPT = _update_script(build_store().tree, 2006, BATCHES, 5)


def _run_script(store, path, batches=SCRIPT, rule=None):
    """Attach a log at ``path`` and run ``batches``, one flush each; a
    ``rule`` is armed after the attach, around the batches only."""
    wal = WriteAheadLog(path).open()
    store.attach_wal(wal)
    try:
        with active(FaultPlan([rule] if rule else [], seed=5)) as plan:
            for ops in batches:
                _apply_batch(store, ops)
    finally:
        wal.close()
    return dict(plan.hits)


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    """The uninterrupted run: fingerprints at every flush boundary, the
    final partitioning, the fault-point hit counts."""
    path = str(tmp_path_factory.mktemp("control") / "control.wal")
    store = build_store()
    boundaries = [store_fingerprint(store)]
    hits = {}
    for ops in SCRIPT:
        for point, count in _run_script(store, path, [ops]).items():
            hits[point] = hits.get(point, 0) + count
        boundaries.append(store_fingerprint(store))
    assert len(set(boundaries)) == BATCHES + 1, "every batch must change the bytes"
    # one log, no checkpoint in between: every flush is still in it
    assert len(read_wal(path).committed) == BATCHES
    return {
        "boundaries": boundaries,
        "partitioning": StoreUpdater(store).current_partitioning(),
        "hits": hits,
    }


def _cells():
    """Every (point, action, hit) the script passes, for parametrizing."""
    with tempfile.TemporaryDirectory() as tmp:
        hits = _run_script(build_store(), os.path.join(tmp, "count.wal"))
    return [
        (point, action, hit)
        for point, action in (
            ("wal.append", "raise"),
            ("wal.fsync", "io-error"),
            ("updates.flush", "raise"),
        )
        for hit in range(1, hits.get(point, 0) + 1)
    ]


def _resume(store, path, boundary, control):
    """Replay the rest of the script on a recovered store."""
    _run_script(store, path, SCRIPT[boundary:])
    assert store_fingerprint(store) == control["boundaries"][-1]
    assert StoreUpdater(store).current_partitioning() == control["partitioning"]
    verify_store_integrity(store)


@pytest.mark.parametrize("point,action,hit", _cells())
def test_crash_anywhere_recovers_cold_and_warm_to_a_flush_boundary(
    tmp_path, control, point, action, hit
):
    assert control["hits"].get(point, 0) >= hit
    store = build_store()
    path = str(tmp_path / "crash.wal")
    with pytest.raises((InjectedFaultError, OSError)):
        _run_script(store, path, rule=FaultRule(point, action, hit=hit))
    warm_path = str(tmp_path / "warm.wal")
    shutil.copyfile(path, warm_path)
    committed = len(read_wal(path).committed)

    cold, report = recover_store(surviving_pages(store), path, CONFIG)
    assert report.committed_transactions == committed
    boundary = control["boundaries"].index(store_fingerprint(cold))
    assert boundary == committed  # every batch commits exactly one txn
    assert_members_match_scan(cold)
    assert_pages_match_scan(cold)

    recover(store, warm_path)
    assert store_fingerprint(store) == store_fingerprint(cold)
    assert_members_match_scan(store)
    assert_pages_match_scan(store)

    _resume(cold, path, boundary, control)
    _resume(store, warm_path, boundary, control)


def test_late_crashes_leave_logs_of_several_transactions(control, tmp_path):
    # the last flush's page apply: every earlier flush is still logged
    last = control["hits"]["updates.flush"]
    store = build_store()
    path = str(tmp_path / "crash.wal")
    with pytest.raises(InjectedFaultError):
        _run_script(store, path, rule=FaultRule("updates.flush", "raise", hit=last))
    state = read_wal(path)
    assert len(state.committed) == BATCHES
    # records dirtied by several flushes have several images in the log
    images = [record_id for txn in state.committed for record_id, _ in txn.images]
    assert len(images) > len(set(images))
    recovered, report = recover_store(surviving_pages(store), path, CONFIG)
    assert store_fingerprint(recovered) == control["boundaries"][-1]
    assert report.records_redone == 1  # only the record the crash cut off


# ---------------------------------------------------------------------------


SMALL_PAGES = StorageConfig(page_size=512, record_limit=64)


def _two_record_page():
    """``<r><a>text</a><b>text</b></r>`` with ``a`` and ``b`` in their own
    records, all three records on one 512-byte page."""
    tree = parse_tree(f"<r><a>{'a' * 100}</a><b>{'b' * 100}</b></r>")
    store = DocumentStore.build(
        tree, Partitioning([(0, 0), (1, 1), (3, 3)]), SMALL_PAGES
    )
    assert len(store.manager.pages) == 1
    return store


def test_superseded_image_that_no_longer_fits_is_not_replayed(tmp_path):
    store = _two_record_page()
    path = str(tmp_path / "log.wal")
    wal = WriteAheadLog(path).open()
    store.attach_wal(wal)
    updater = StoreUpdater(store)
    a_text, b_text = 2, 4
    updater.update_content(a_text, "a" * 250)  # txn 1: a's record grows
    updater.flush()
    updater.update_content(a_text, "a" * 10)  # txn 2: it shrinks again ...
    updater.update_content(b_text, "b" * 360)  # ... and b takes the room
    updater.flush()
    wal.close()
    assert len(store.manager.pages) == 1

    state = read_wal(path)
    assert len(state.committed) == 2
    a_record = store.record_of[a_text]
    (old_a,) = [blob for rid, blob in state.committed[0].images if rid == a_record]
    page = store.manager.pages[0]
    # the premise: swapping a's current blob for its txn-1 image would
    # overflow the page, so replaying every image moves a to a new page
    room = page.free_bytes + len(page.get(a_record))
    assert len(old_a) > room

    expected = store_fingerprint(store)
    recovered, report = recover_store(surviving_pages(store), path, SMALL_PAGES)
    assert store_fingerprint(recovered) == expected
    assert report.records_redone == 0
    assert len(recovered.manager.pages) == 1

    warm_path = str(tmp_path / "warm.wal")
    shutil.copyfile(path, warm_path)
    assert recover(store, warm_path).records_redone == 0
    assert store_fingerprint(store) == expected


# ---------------------------------------------------------------------------


def test_log_stays_bounded_and_checkpoints_fire(tmp_path, monkeypatch):
    bound = 32 * 1024
    monkeypatch.setattr(wal_mod, "CHECKPOINT_BYTES", bound)
    store = build_store()
    path = str(tmp_path / "long.wal")
    wal = WriteAheadLog(path).open()
    store.attach_wal(wal)
    script = _update_script(store.tree, 7, 200, 2)
    largest_flush = 0
    peak = 0
    with telemetry.capture() as reg:
        for ops in script:
            before = wal.size
            appended = reg.counters.get("recovery.wal.bytes")
            appended = appended.value if appended else 0
            _apply_batch(store, ops)
            flushed = reg.counters["recovery.wal.bytes"].value - appended
            largest_flush = max(largest_flush, flushed)
            # the log peaks right after COMMIT, before any checkpoint
            peak = max(peak, before + flushed)
            assert before < bound
            assert wal.size == os.path.getsize(path)
            assert wal.size < bound
    wal.close()
    assert peak <= bound + largest_flush
    checkpoints = reg.counters["recovery.wal.checkpoints"].value
    assert 2 <= checkpoints < len(script) // 4  # most flushes skip it

    # a log that checkpointed along the way still recovers the last state
    expected = store_fingerprint(store)
    recovered, _ = recover_store(surviving_pages(store), path, CONFIG)
    assert store_fingerprint(recovered) == expected
