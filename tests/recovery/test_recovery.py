"""Recovery-manager tests: every crash shape the WAL protocol promises
to survive, asserted by byte-identity against an uninterrupted control.

Each scenario kills a real :meth:`StoreUpdater.flush` at a chosen fault
point, keeps only what a crash keeps (the page images and the log file),
and requires recovery to land on *exactly* the control's pre-flush or
post-flush bytes — never a torn middle, never a corrupt read.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.errors import InjectedFaultError, RecoveryError, WalError
from repro.faults import FaultPlan, FaultRule, active
from repro.partition import evaluate_partitioning
from repro.recovery import WriteAheadLog, read_wal, recover, recover_store
from repro.recovery import wal as wal_mod
from repro.storage import StorageConfig, StoreUpdater
from repro.storage.reconstruct import verify_store_integrity
from tests.recovery.conftest import (
    LIMIT,
    apply_ops,
    apply_positional_ops,
    build_store,
    store_fingerprint,
    surviving_pages,
)
from tests.storage.oracles import (
    assert_members_match_scan,
    assert_pages_match_scan,
)

CONFIG = StorageConfig(record_limit=LIMIT)


def _control(tmp_path, ops=apply_ops):
    """Uninterrupted run: (pre, post) fingerprints, partitioning, hits."""
    store = build_store()
    wal = WriteAheadLog(str(tmp_path / "control.wal")).open()
    store.attach_wal(wal)
    pre = store_fingerprint(store)
    updater = StoreUpdater(store)
    ops(updater)
    plan = FaultPlan([], seed=11)  # armed but empty: harvests hit counts
    with active(plan):
        updater.flush()
    wal.close()
    return {
        "pre": pre,
        "post": store_fingerprint(store),
        "partitioning": updater.current_partitioning(),
        "hits": dict(plan.hits),
    }


def _crashed_flush(tmp_path, rule: FaultRule, ops=apply_ops):
    """Run the canonical batch and kill its flush with ``rule``."""
    store = build_store()
    path = str(tmp_path / "crash.wal")
    wal = WriteAheadLog(path).open()
    store.attach_wal(wal)
    updater = StoreUpdater(store)
    ops(updater)
    with active(FaultPlan([rule], seed=11)):
        with pytest.raises((InjectedFaultError, OSError)):
            updater.flush()
    wal.close()
    return store, path


def _recovered_checks(store, control):
    """The crash-matrix gate: bytes, integrity, partitioning — and the
    derived state ``rebind`` rebuilt agrees with the whole-tree scan."""
    verify_store_integrity(store)
    assert_members_match_scan(store)
    assert_pages_match_scan(store)
    partitioning = StoreUpdater(store).current_partitioning()
    report = evaluate_partitioning(store.tree, partitioning, LIMIT)
    assert report.feasible, "recovery produced an infeasible partitioning"
    return partitioning


class TestCrashShapes:
    def test_crash_before_commit_recovers_pre_flush_state(self, tmp_path):
        control = _control(tmp_path)
        last_image = control["hits"]["wal.append"] - 1  # all frames but COMMIT
        store, path = _crashed_flush(
            tmp_path, FaultRule("wal.append", "raise", hit=last_image)
        )

        recovered, report = recover_store(surviving_pages(store), path, CONFIG)
        assert store_fingerprint(recovered) == control["pre"]
        assert report.open_transaction_discarded == 1
        assert report.committed_transactions == 0
        assert report.records_redone == 0
        assert not report.clean
        _recovered_checks(recovered, control)

    def test_crash_after_commit_redoes_to_post_flush_state(self, tmp_path):
        control = _control(tmp_path)
        commit = control["hits"]["wal.append"]  # fires right after COMMIT lands
        store, path = _crashed_flush(
            tmp_path, FaultRule("wal.append", "raise", hit=commit)
        )

        recovered, report = recover_store(surviving_pages(store), path, CONFIG)
        assert store_fingerprint(recovered) == control["post"]
        assert report.replayed_transactions == [1]
        assert report.records_redone >= 1
        assert report.open_transaction_discarded is None
        partitioning = _recovered_checks(recovered, control)
        assert partitioning == control["partitioning"]

    def test_crash_between_commit_and_page_apply(self, tmp_path):
        control = _control(tmp_path)
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )

        recovered, report = recover_store(surviving_pages(store), path, CONFIG)
        assert store_fingerprint(recovered) == control["post"]
        assert report.replayed_transactions == [1]

    def test_positional_insert_crash_recovers_renumbered_siblings(self, tmp_path):
        # the front inserts shift every <person>; their records must be in
        # the transaction or cold recovery rebuilds a tree with position gaps
        control = _control(tmp_path, apply_positional_ops)
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1), apply_positional_ops
        )
        # every record holds a renumbered <person> (or the new nodes)
        assert len(read_wal(path).latest_images()) == store.record_count

        recovered, report = recover_store(surviving_pages(store), path, CONFIG)
        assert store_fingerprint(recovered) == control["post"]
        assert report.replayed_transactions == [1]
        partitioning = _recovered_checks(recovered, control)
        assert partitioning == control["partitioning"]
        assert [c.label for c in recovered.tree.root.children[:4]] == [
            "p2", "p1", "p0", "person",
        ]

    def test_fsync_io_error_at_group_commit(self, tmp_path):
        # the plan is armed around flush() only (attach_wal's checkpoint
        # ran before it), so hit 1 is the commit fsync
        control = _control(tmp_path)
        store, path = _crashed_flush(
            tmp_path, FaultRule("wal.fsync", "io-error", hit=1)
        )

        # the COMMIT frame reached the file before the failed fsync, so
        # redo replays the flush — losing the fsync never loses *applied*
        # history, it only weakens the durability claim the test model
        # does not simulate (OS cache loss)
        recovered, _report = recover_store(surviving_pages(store), path, CONFIG)
        assert store_fingerprint(recovered) == control["post"]

    def test_fsync_io_error_at_checkpoint(self, tmp_path, monkeypatch):
        # a log always "due" makes the flush checkpoint: hit 1 is the
        # commit fsync, hit 2 the checkpoint file's — after every page
        # apply, before the rename, so the old log survives intact
        monkeypatch.setattr(wal_mod, "CHECKPOINT_BYTES", 0)
        control = _control(tmp_path)
        assert control["hits"]["wal.fsync"] >= 2
        store, path = _crashed_flush(
            tmp_path, FaultRule("wal.fsync", "io-error", hit=2)
        )
        assert store_fingerprint(store) == control["post"]
        assert len(read_wal(path).committed) == 1

        recovered, report = recover_store(surviving_pages(store), path, CONFIG)
        assert store_fingerprint(recovered) == control["post"]
        assert report.records_redone == 0
        _recovered_checks(recovered, control)

    def test_torn_commit_frame_discards_the_transaction(self, tmp_path):
        control = _control(tmp_path)
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)  # shear COMMIT

        recovered, report = recover_store(surviving_pages(store), path, CONFIG)
        assert store_fingerprint(recovered) == control["pre"]
        assert report.torn_bytes_discarded > 0
        assert report.open_transaction_discarded == 1
        _recovered_checks(recovered, control)

    def test_interior_wal_corruption_refuses_to_replay(self, tmp_path):
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )
        data = bytearray(open(path, "rb").read())
        data[struct.calcsize("<II") + 1] ^= 0x40  # inside the first frame
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        with pytest.raises(WalError, match="interior corruption"):
            recover_store(surviving_pages(store), path, CONFIG)

    def test_page_bitflip_repaired_from_logged_image(self, tmp_path):
        control = _control(tmp_path)
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )
        pages = surviving_pages(store)
        record_id = min(read_wal(path).latest_images())
        page = next(p for p in pages.values() if record_id in p.slots)
        blob = page.slots[record_id]
        page.slots[record_id] = blob[:1] + bytes([blob[1] ^ 0x01]) + blob[2:]

        recovered, report = recover_store(pages, path, CONFIG)
        assert store_fingerprint(recovered) == control["post"]
        assert page.page_id in report.pages_repaired
        assert record_id in report.records_restored
        _recovered_checks(recovered, control)

    def test_damage_without_an_image_is_refused(self, tmp_path):
        store = build_store()
        path = str(tmp_path / "crash.wal")
        wal = WriteAheadLog(path).open()
        store.attach_wal(wal)  # checkpoint only: the log holds no images
        wal.close()
        pages = surviving_pages(store)
        page = pages[min(pages)]
        record_id = min(page.slots)
        page.slots[record_id] = b"\x00"  # undecodable stump

        with pytest.raises(RecoveryError, match="fails to decode"):
            recover_store(pages, path, CONFIG)

    def test_double_crash_during_recovery_is_idempotent(self, tmp_path):
        control = _control(tmp_path)
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )
        pages = surviving_pages(store)

        # recovery itself dies at the same fault point...
        with active(FaultPlan([FaultRule("updates.flush", "raise", hit=1)], seed=3)):
            with pytest.raises(InjectedFaultError):
                recover_store(pages, path, CONFIG)
        # ...and simply runs again: redo skips whatever already landed
        recovered, report = recover_store(pages, path, CONFIG)
        assert store_fingerprint(recovered) == control["post"]
        assert report.replayed_transactions == [1]


class TestReportsAndCheckpoints:
    def test_recovery_checkpoint_makes_second_recovery_clean(self, tmp_path):
        control = _control(tmp_path)
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )

        recovered, report = recover_store(surviving_pages(store), path, CONFIG)
        assert report.checkpointed
        assert read_wal(path).frames == 1  # truncated to one CHECKPOINT

        again, second = recover_store(surviving_pages(recovered), path, CONFIG)
        assert second.clean
        assert store_fingerprint(again) == control["post"]
        assert "clean" in second.summary()

    def test_skipping_the_checkpoint_leaves_the_log(self, tmp_path):
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )
        frames_before = read_wal(path).frames

        _, report = recover_store(
            surviving_pages(store), path, CONFIG, checkpoint=False
        )
        assert not report.checkpointed
        assert read_wal(path).frames == frames_before

    def test_dirty_summary_names_the_work(self, tmp_path):
        store, path = _crashed_flush(
            tmp_path, FaultRule("updates.flush", "raise", hit=1)
        )
        _, report = recover_store(surviving_pages(store), path, CONFIG)
        summary = report.summary()
        assert "replayed 1 txn(s)" in summary
        assert not report.clean

    def test_missing_label_snapshot_is_an_error(self, tmp_path):
        pages = surviving_pages(build_store())
        with pytest.raises(RecoveryError, match="label snapshot"):
            recover_store(pages, str(tmp_path / "never-attached.wal"), CONFIG)


class TestWarmRecovery:
    def test_recover_in_place_then_resume_updates(self, tmp_path):
        control = _control(tmp_path)
        store, path = _crashed_flush(
            tmp_path, FaultRule("wal.append", "raise",
                               hit=control["hits"]["wal.append"] - 1)
        )
        # the crash left memory ahead of disk: the tree holds the
        # inserts whose flush never committed
        recover(store, path)
        assert store_fingerprint(store) == control["pre"]
        _recovered_checks(store, control)

        # the lost batch is simply re-run on the recovered store
        wal = WriteAheadLog(path).open()
        store.attach_wal(wal)
        updater = StoreUpdater(store)
        apply_ops(updater)
        updater.flush()
        wal.close()
        assert store_fingerprint(store) == control["post"]
        assert updater.current_partitioning() == control["partitioning"]

    def test_recover_without_wal_or_path_is_an_error(self):
        store = build_store()
        with pytest.raises(RecoveryError, match="no WAL attached"):
            recover(store)

    def test_warm_recovery_checkpoints_through_open_wal(self, tmp_path):
        store = build_store()
        path = str(tmp_path / "warm.wal")
        wal = WriteAheadLog(path).open()
        store.attach_wal(wal)
        updater = StoreUpdater(store)
        apply_ops(updater)
        updater.flush()

        report = recover(store)  # clean store, open log: a no-op sweep
        assert report.clean
        assert report.checkpointed
        assert wal.is_open  # checkpointing reopened the handle
        assert read_wal(path).frames == 1
        wal.close()
