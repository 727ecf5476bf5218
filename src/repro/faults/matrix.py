"""The fault matrix: end-to-end crash/resume and corruption drills.

:func:`run_fault_matrix` exercises the robustness guarantees the rest of
this package only makes possible:

* **Crash + resume** — a journaled bulk load is killed (via an injected
  fault) at spill boundaries and at finalize; each time the import is
  resumed and the matrix asserts the resumed partitioning *and* the
  store built from it are byte-identical to an uninterrupted run
  (:func:`store_fingerprint`).
* **Bit-flips on read** — every sampled page is corrupted with a seeded
  single-bit flip on its next fetch; the matrix asserts the read
  surfaces :class:`~repro.errors.CorruptPageError` (no silent garbage)
  and that the pool stays usable afterwards.
* **Torn writes** — a store is built under an injected short write; the
  matrix asserts full reconstruction refuses the damaged store.

:func:`run_update_crash_matrix` is the **chaos crash matrix** for
in-place updates: a deterministic scripted update workload runs against
a WAL-attached store and is killed at every sampled WAL record boundary
(``wal.append``), group-commit fsync (``wal.fsync``) and page apply
(``updates.flush``). Flushes do not checkpoint until the log holds
:data:`~repro.recovery.wal.CHECKPOINT_BYTES`, so later crashes leave a
log of several committed transactions behind. Each time, only the page
images and the log file "survive",
:func:`repro.recovery.recover_store` rebuilds the store, and
the matrix asserts the recovered bytes land exactly on a flush boundary
of the uninterrupted control run, then replays the remaining script and
asserts final byte-identity, partitioning equality and full
reconstruction (zero corrupt reads). Extra cells tear the log's tail,
bit-flip its interior (must be refused loudly), bit-flip a surviving
page (must be repaired from logged images) and crash recovery itself
mid-redo (must be idempotent).

Every scenario is deterministic (seeded plans, fixed document), so a
failure reproduces exactly from its printed rule spec. The matrix is
exposed as the ``repro-faults`` command line (:mod:`repro.faults.cli`)
and a trimmed version runs in ``make verify`` (*faults-smoke* and
*chaos-smoke*).
"""

from __future__ import annotations

import copy
import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional

from repro.bulkload.importer import BulkLoader, ImportResult
from repro.bulkload.journal import resume_import
from repro.datasets.xmark import xmark_document
from repro.errors import (
    CorruptPageError,
    InjectedFaultError,
    StorageError,
    WalError,
)
from repro.faults.plan import FaultPlan, FaultRule, active
from repro.recovery.manager import recover_store
from repro.recovery.wal import WriteAheadLog, read_wal
from repro.storage.constants import StorageConfig
from repro.storage.page import Page
from repro.storage.reconstruct import verify_store_integrity
from repro.storage.store import DocumentStore
from repro.storage.updates import StoreUpdater
from repro.tree.node import NodeKind
from repro.xmlio.serialize import tree_to_xml


@dataclass
class FaultScenario:
    """One matrix cell: the injected rule and what happened."""

    name: str
    rule: str
    passed: bool
    detail: str = ""
    #: committed transactions the log held when recovery read it (update
    #: crash cells only)
    committed_txns: int = 0


@dataclass
class MatrixReport:
    """Outcome of a whole :func:`run_fault_matrix` run."""

    scenarios: list[FaultScenario] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for s in self.scenarios if s.passed)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.scenarios if not s.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def failures(self) -> list[FaultScenario]:
        return [s for s in self.scenarios if not s.passed]

    def summary(self) -> str:
        lines = [f"fault matrix: {self.passed}/{len(self.scenarios)} scenarios passed"]
        multi = sum(1 for s in self.scenarios if s.committed_txns >= 2)
        if multi:
            lines.append(
                f"  {multi} crash cell(s) recovered from a log holding >= 2 "
                f"committed transactions (up to "
                f"{max(s.committed_txns for s in self.scenarios)})"
            )
        for scenario in self.scenarios:
            mark = "ok " if scenario.passed else "FAIL"
            line = f"  [{mark}] {scenario.name:<28} {scenario.rule}"
            if scenario.detail and not scenario.passed:
                line += f" — {scenario.detail}"
            lines.append(line)
        return "\n".join(lines)


def store_fingerprint(store: DocumentStore) -> str:
    """SHA-256 over the store's page images (headers + slot contents).

    Two stores with equal fingerprints hold byte-identical pages — the
    equality the crash/resume scenarios assert.
    """
    digest = hashlib.sha256()
    for page_id in sorted(store.manager.pages):
        page = store.manager.pages[page_id]
        digest.update(page.header_bytes())
        for record_id in sorted(page.slots):
            digest.update(record_id.to_bytes(4, "little"))
            digest.update(page.slots[record_id])
    return digest.hexdigest()


def _sample(count: int, cap: int) -> list[int]:
    """Up to ``cap`` 1-based indices spread evenly over ``1..count``."""
    if count <= 0:
        return []
    if count <= cap:
        return list(range(1, count + 1))
    step = count / cap
    picks = sorted({int(i * step) + 1 for i in range(cap)})
    return [p for p in picks if 1 <= p <= count]


def run_fault_matrix(
    source: Optional[str] = None,
    algorithm: str = "ekm",
    limit: int = 64,
    spill_threshold: int = 256,
    seed: int = 2006,
    max_crash_points: int = 6,
    max_flip_pages: int = 8,
    scale: float = 0.004,
) -> MatrixReport:
    """Run the whole matrix against one document; see the module doc.

    ``max_crash_points`` / ``max_flip_pages`` bound the matrix for smoke
    use; pass large values for the exhaustive run (``repro-faults
    --full``).
    """
    if source is None:
        source = tree_to_xml(xmark_document(scale=scale, seed=seed))
    report = MatrixReport()

    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        def loader() -> BulkLoader:
            return BulkLoader(algorithm, limit, spill_threshold)

        baseline = loader().load(
            source, journal_path=os.path.join(tmp, "baseline.journal")
        )
        base_store = DocumentStore.build(baseline.tree, baseline.partitioning)
        base_print = store_fingerprint(base_store)

        # -- crash + resume at every sampled spill boundary and finalize --
        crash_rules = [
            FaultRule("bulkload.spill", "raise", hit=h)
            for h in _sample(baseline.seals, max_crash_points)
        ]
        crash_rules.append(FaultRule("bulkload.finalize", "raise"))
        for index, rule in enumerate(crash_rules):
            journal = os.path.join(tmp, f"crash-{index}.journal")
            report.scenarios.append(
                _crash_resume_scenario(
                    loader(), source, journal, rule, baseline, base_print, seed
                )
            )

        # -- seeded bit-flips on read: every sampled page must scream ----
        page_ids = sorted(base_store.manager.pages)
        flip_step = max(1, len(page_ids) // max_flip_pages)
        for page_id in page_ids[::flip_step][:max_flip_pages]:
            report.scenarios.append(
                _bitflip_scenario(base_store, page_id, seed)
            )

        # -- torn write during store build: reconstruction must refuse ---
        report.scenarios.append(_torn_write_scenario(baseline, seed))

    return report


def _crash_resume_scenario(
    loader: BulkLoader,
    source: str,
    journal: str,
    rule: FaultRule,
    baseline: ImportResult,
    base_print: str,
    seed: int,
) -> FaultScenario:
    name = f"crash@{rule.point}#{rule.hit}"
    try:
        with active(FaultPlan([rule], seed=seed)):
            loader.load(source, journal_path=journal)
        return FaultScenario(name, rule.spec(), False, "fault never fired")
    except InjectedFaultError:
        pass
    except Exception as exc:  # pragma: no cover - diagnostic path
        return FaultScenario(name, rule.spec(), False, f"unexpected {exc!r}")
    try:
        resumed = resume_import(source, journal)
    except Exception as exc:
        return FaultScenario(name, rule.spec(), False, f"resume failed: {exc!r}")
    if resumed.partitioning != baseline.partitioning:
        return FaultScenario(name, rule.spec(), False, "partitioning diverged")
    store = DocumentStore.build(resumed.tree, resumed.partitioning)
    if store_fingerprint(store) != base_print:
        return FaultScenario(name, rule.spec(), False, "store bytes diverged")
    return FaultScenario(name, rule.spec(), True, "resumed byte-identical")


def _bitflip_scenario(store: DocumentStore, page_id: int, seed: int) -> FaultScenario:
    rule = FaultRule("page.read", "bitflip")
    name = f"bitflip@page{page_id}"
    page = store.manager.pages[page_id]
    if not page.slots:
        return FaultScenario(name, rule.spec(), True, "empty page (skipped)")
    saved_slots = dict(page.slots)
    saved_checksum = page.checksum
    record_id = next(iter(sorted(page.slots)))
    store.buffer.clear()
    try:
        with active(FaultPlan([rule], seed=seed + page_id)):
            try:
                store.fetch_record(record_id)
                return FaultScenario(
                    name, rule.spec(), False, "corrupt read returned data"
                )
            except CorruptPageError:
                pass
        # The pool must not be poisoned: with the damage undone the same
        # fetch must succeed again (the corrupt page was never cached).
        page.slots.clear()
        page.slots.update(saved_slots)
        page.checksum = saved_checksum
        store.fetch_record(record_id)
    except Exception as exc:
        return FaultScenario(name, rule.spec(), False, f"unexpected {exc!r}")
    finally:
        page.slots.clear()
        page.slots.update(saved_slots)
        page.checksum = saved_checksum
    return FaultScenario(name, rule.spec(), True, "caught, pool usable")


def _torn_write_scenario(baseline: ImportResult, seed: int) -> FaultScenario:
    # Target the *last* record write: a later put() on the same page
    # would re-seal the checksum over the damaged slots (the simulator's
    # pages dict is the disk), laundering the injected tear.
    last_write = baseline.emitted_partitions
    rule = FaultRule("page.write", "torn", hit=last_write)
    name = f"torn@page.write#{last_write}"
    try:
        with active(FaultPlan([rule], seed=seed)):
            store = DocumentStore.build(baseline.tree, baseline.partitioning)
        try:
            verify_store_integrity(store)
            return FaultScenario(
                name, rule.spec(), False, "damaged store verified clean"
            )
        except (CorruptPageError, StorageError):
            return FaultScenario(name, rule.spec(), True, "damage detected")
    except Exception as exc:  # pragma: no cover - diagnostic path
        return FaultScenario(name, rule.spec(), False, f"unexpected {exc!r}")


# ---------------------------------------------------------------------------
# The chaos crash matrix: in-place updates killed at every WAL boundary.
# ---------------------------------------------------------------------------


@dataclass
class _UpdateWorkload:
    """Everything one update-crash scenario needs, computed once."""

    base: ImportResult
    config: StorageConfig
    #: batches of concrete ops; each batch ends in one WAL-logged flush
    script: list
    #: store fingerprint before any batch and after each batch's flush —
    #: the only byte states a crash may legally recover to
    checkpoints: list
    final_partitioning: object
    seed: int
    tmp: str


def _update_script(tree, seed: int, batches: int, ops_per_batch: int) -> list:
    """A deterministic update script against the *initial* tree.

    Every op references node ids that exist before the script starts, so
    the same batch replays identically from any flush boundary — inserts
    allocate node ids from the tree size, which is itself a function of
    the boundary.
    """
    rng = Random(seed)
    elements = [n.node_id for n in tree if n.kind is NodeKind.ELEMENT]
    texts = [n.node_id for n in tree if n.kind is NodeKind.TEXT]
    script = []
    for index in range(batches):
        ops = []
        for op in range(ops_per_batch):
            if texts and rng.random() < 0.3:
                ops.append(
                    (
                        "content",
                        rng.choice(texts),
                        f"upd-{index}-{op}-" + "x" * rng.randrange(1, 17),
                    )
                )
            else:
                # every third insert goes in front of its siblings: they
                # are renumbered, so records the new node never joins
                # must reach the log too
                position = 0 if op % 3 == 0 else None
                ops.append(
                    ("insert", rng.choice(elements), f"n{index}x{op}", position)
                )
        script.append(ops)
    return script


def _apply_batch(store: DocumentStore, ops) -> None:
    updater = StoreUpdater(store)
    for op in ops:
        try:
            if op[0] == "insert":
                updater.insert_node(op[1], op[2], position=op[3])
            else:
                updater.update_content(op[1], op[2])
        except StorageError:
            continue  # a no-room outcome is deterministic and replays so
    updater.flush()


def _fresh_store(base: ImportResult, config: StorageConfig) -> DocumentStore:
    # deepcopy: updates mutate the tree, and every scenario must start
    # from the same pristine document
    return DocumentStore.build(copy.deepcopy(base.tree), base.partitioning, config)


def _surviving_pages(store: DocumentStore) -> dict:
    """What a crash leaves behind: the page images, nothing in memory."""
    return {
        page_id: Page(page.page_id, page.config, dict(page.slots), page.version, page.checksum)
        for page_id, page in store.manager.pages.items()
    }


def _control_run(
    base: ImportResult, config: StorageConfig, script, tmp: str, seed: int
):
    """The uninterrupted run: per-boundary fingerprints + fault-point
    hit counts (which bound the crash sweep)."""
    store = _fresh_store(base, config)
    wal = WriteAheadLog(os.path.join(tmp, "updates-control.wal")).open()
    store.attach_wal(wal)
    checkpoints = [store_fingerprint(store)]
    with active(FaultPlan([], seed=seed)) as plan:
        for ops in script:
            _apply_batch(store, ops)
            checkpoints.append(store_fingerprint(store))
    wal.close()
    final_partitioning = StoreUpdater(store).current_partitioning()
    return checkpoints, dict(plan.hits), final_partitioning


def _update_crash_scenario(
    workload: _UpdateWorkload,
    rule: FaultRule,
    index: int,
    *,
    suffix: str = "",
    damage: Optional[Callable] = None,
    recovery_rule: Optional[FaultRule] = None,
) -> FaultScenario:
    """Kill the scripted workload with ``rule``; recover; resume; compare.

    ``damage`` optionally corrupts the surviving pages / log before
    recovery (torn tails, bit rot); ``recovery_rule`` optionally crashes
    the *first* recovery attempt mid-redo (the double-crash drill).
    """
    name = f"update-crash@{rule.point}#{rule.hit}{suffix}"
    wal_path = os.path.join(workload.tmp, f"updates-crash-{index}.wal")
    store = _fresh_store(workload.base, workload.config)
    wal = WriteAheadLog(wal_path).open()
    store.attach_wal(wal)
    crashed = False
    try:
        with active(FaultPlan([rule], seed=workload.seed)):
            try:
                for ops in workload.script:
                    _apply_batch(store, ops)
            except (InjectedFaultError, OSError):
                crashed = True
    finally:
        wal.close()
    if not crashed:
        return FaultScenario(name, rule.spec(), False, "fault never fired")
    surviving = _surviving_pages(store)
    detail = ""
    if damage is not None:
        detail = damage(surviving, wal_path, Random(workload.seed * 31 + index)) or ""
    if recovery_rule is not None:
        try:
            with active(FaultPlan([recovery_rule], seed=workload.seed + 1)):
                recover_store(surviving, wal_path, workload.config)
            return FaultScenario(
                name, rule.spec(), False, "recovery fault never fired"
            )
        except (InjectedFaultError, OSError):
            pass  # recovery itself crashed; the retry below must succeed
    try:
        recovered, report = recover_store(surviving, wal_path, workload.config)
    except Exception as exc:
        return FaultScenario(name, rule.spec(), False, f"recovery failed: {exc!r}")
    fingerprint = store_fingerprint(recovered)
    if fingerprint not in workload.checkpoints:
        return FaultScenario(
            name, rule.spec(), False, "recovered bytes match no flush boundary"
        )
    boundary = workload.checkpoints.index(fingerprint)
    resume_wal = WriteAheadLog(wal_path).open()
    recovered.attach_wal(resume_wal)
    try:
        for ops in workload.script[boundary:]:
            _apply_batch(recovered, ops)
    finally:
        resume_wal.close()
    if store_fingerprint(recovered) != workload.checkpoints[-1]:
        return FaultScenario(name, rule.spec(), False, "final store bytes diverged")
    if StoreUpdater(recovered).current_partitioning() != workload.final_partitioning:
        return FaultScenario(name, rule.spec(), False, "final partitioning diverged")
    try:
        verify_store_integrity(recovered)
    except StorageError as exc:
        return FaultScenario(name, rule.spec(), False, f"corrupt read: {exc!r}")
    txns = report.committed_transactions
    note = (
        f"recovered at boundary {boundary}/{len(workload.checkpoints) - 1} "
        f"from a log of {txns} committed txn(s)"
    )
    if detail:
        note += f"; {detail}"
    return FaultScenario(name, rule.spec(), True, note, txns)


def _tear_wal_tail(surviving, wal_path: str, rng: Random) -> str:
    """Shear 1-11 bytes off the log — a torn final frame."""
    size = os.path.getsize(wal_path)
    drop = rng.randrange(1, 12)
    with open(wal_path, "r+b") as handle:
        handle.truncate(max(0, size - drop))
    return f"tore {drop}B off the log tail"


def _flip_imaged_page_slot(surviving, wal_path: str, rng: Random) -> str:
    """Bit-flip a surviving page slot the log holds an after-image of —
    page repair, not redo, is what must fix this."""
    images = read_wal(wal_path).latest_images()
    for record_id in sorted(images):
        for page in surviving.values():
            blob = page.slots.get(record_id)
            if blob:
                at = rng.randrange(len(blob))
                bit = 1 << rng.randrange(8)
                page.slots[record_id] = (
                    blob[:at] + bytes([blob[at] ^ bit]) + blob[at + 1 :]
                )
                return f"flipped a bit in record {record_id} on page {page.page_id}"
    return "no imaged slot to flip"


def _wal_interior_corruption_scenario(
    workload: _UpdateWorkload, index: int
) -> FaultScenario:
    """A bit-flip *inside* the log (not its tail) must refuse to replay."""
    rule = FaultRule("updates.flush", "raise", hit=1)
    name = "update-crash@wal-interior-bitflip"
    wal_path = os.path.join(workload.tmp, f"updates-crash-{index}.wal")
    store = _fresh_store(workload.base, workload.config)
    wal = WriteAheadLog(wal_path).open()
    store.attach_wal(wal)
    try:
        with active(FaultPlan([rule], seed=workload.seed)):
            try:
                for ops in workload.script:
                    _apply_batch(store, ops)
                return FaultScenario(name, rule.spec(), False, "fault never fired")
            except InjectedFaultError:
                pass
    finally:
        wal.close()
    with open(wal_path, "r+b") as handle:
        data = bytearray(handle.read())
        data[9] ^= 0x40  # inside the first frame's payload; frames follow
        handle.seek(0)
        handle.write(bytes(data))
    try:
        recover_store(_surviving_pages(store), wal_path, workload.config)
    except WalError:
        return FaultScenario(name, rule.spec(), True, "interior corruption refused")
    except Exception as exc:  # pragma: no cover - diagnostic path
        return FaultScenario(name, rule.spec(), False, f"unexpected {exc!r}")
    return FaultScenario(name, rule.spec(), False, "corrupt log replayed silently")


def run_update_crash_matrix(
    source: Optional[str] = None,
    algorithm: str = "ekm",
    limit: int = 64,
    spill_threshold: int = 256,
    seed: int = 2006,
    batches: int = 3,
    ops_per_batch: int = 10,
    max_crash_points: int = 6,
    scale: float = 0.002,
) -> MatrixReport:
    """Kill a WAL-logged update workload at every sampled boundary.

    ``max_crash_points`` bounds the sweep *per fault point* for smoke
    use; pass a large value for the exhaustive run (``repro-faults
    --updates --full`` covers every WAL record boundary).
    """
    if source is None:
        source = tree_to_xml(xmark_document(scale=scale, seed=seed))
    report = MatrixReport()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        base = BulkLoader(algorithm, limit, spill_threshold).load(
            source, journal_path=os.path.join(tmp, "updates-base.journal")
        )
        config = StorageConfig(record_limit=limit)
        script = _update_script(base.tree, seed, batches, ops_per_batch)
        checkpoints, hits, final_partitioning = _control_run(
            base, config, script, tmp, seed
        )
        workload = _UpdateWorkload(
            base, config, script, checkpoints, final_partitioning, seed, tmp
        )

        cells: list[tuple[FaultRule, dict]] = []
        for hit in _sample(hits.get("updates.flush", 0), max_crash_points):
            cells.append((FaultRule("updates.flush", "raise", hit=hit), {}))
        for hit in _sample(hits.get("wal.append", 0), max_crash_points):
            cells.append((FaultRule("wal.append", "raise", hit=hit), {}))
        # the control arms its plan after attach_wal, so every wal.fsync
        # hit is a group commit (or a size-triggered checkpoint)
        for hit in _sample(hits.get("wal.fsync", 0), max_crash_points):
            cells.append((FaultRule("wal.fsync", "io-error", hit=hit), {}))
        mid_append = max(2, hits.get("wal.append", 2) // 2)
        cells.append(
            (
                FaultRule("wal.append", "raise", hit=mid_append),
                {"suffix": "+torn-tail", "damage": _tear_wal_tail},
            )
        )
        cells.append(
            (
                FaultRule("updates.flush", "raise", hit=1),
                {"suffix": "+page-bitflip", "damage": _flip_imaged_page_slot},
            )
        )
        cells.append(
            (
                FaultRule("updates.flush", "raise", hit=1),
                {
                    "suffix": "+crash-in-recovery",
                    "recovery_rule": FaultRule("updates.flush", "raise", hit=1),
                },
            )
        )
        for index, (rule, extra) in enumerate(cells):
            report.scenarios.append(
                _update_crash_scenario(workload, rule, index, **extra)
            )
        report.scenarios.append(
            _wal_interior_corruption_scenario(workload, len(cells))
        )
    return report
