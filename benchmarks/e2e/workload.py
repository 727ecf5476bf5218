"""What run.py asks of a workload.

A workload owns its inputs (a pure function of the seed), its set-up
and tear-down, its round (the timed op list) and its oracle checks
(``verify``, always outside the timers).
A traced run additionally calls the probe hooks and ``layer_metrics``.
"""

from __future__ import annotations

from repro.bulkload import BulkLoader
from repro.storage import DocumentStore

from inputs import K
from spans import Recorder, coverage


def ingest(call, xml: bytes) -> tuple:
    """The Natix document path: stream-parse + EKM, store, index, preload.
    ``call`` is ``Recorder.call`` (spans when tracing) or ``spans.direct``."""
    result = call("bulkload.load", BulkLoader(algorithm="ekm", limit=K).load, xml)
    store = call("storage.build", DocumentStore.build, result.tree, result.partitioning)
    call("index.build", store.build_index)
    call("storage.warm_up", store.warm_up)
    return result, store


class Workload:
    #: workload name as in BENCHMARK.json
    name = ""
    #: (full, smoke) size tables; subclasses fill them in
    FULL: dict = {}
    SMOKE: dict = {}
    #: in a traced run, run the warm-up round under ``telemetry.capture()``
    #: to read the program's own counters (library workloads only: a
    #: service reports through its ``/metrics``)
    COUNTED_WARM_UP = True

    def __init__(self, seed: int, smoke: bool, tmp: str, rec: Recorder):
        self.seed = seed
        self.size = self.SMOKE if smoke else self.FULL
        self.tmp = tmp
        self.rec = rec
        # the exact end-to-end metrics, summed by verify() over kept rounds
        self.partitions_total = 0
        self.stored_bytes = 0
        self.user_bytes = 0
        #: program-side telemetry counters of the counted warm-up round
        self.counters: dict[str, float] = {}

    # -- inputs and state ---------------------------------------------------

    def generate(self, rounds: list[int]) -> None:
        """Build every input (and independent oracle state) of the given
        round indices from the seed. Runs once per process."""
        raise NotImplementedError

    def set_up(self) -> None:
        """Bring the program to the state rounds start from."""

    def tear_down(self) -> None:
        """Undo :meth:`set_up` (close connections, stop the service)."""

    # -- the measured part ----------------------------------------------------

    def run_round(self, index: int):
        """Run round ``index``'s op list through ``self.rec``; returns
        whatever :meth:`verify` needs to check it."""
        raise NotImplementedError

    def verify(self, index: int, outcome) -> None:
        """Check the round's outputs against the oracle and add its
        contribution to the exact metrics. Outside the timers."""
        raise NotImplementedError

    def description(self) -> dict:
        """Sizes, client counts and cache sizes, printed with the run."""
        return dict(self.size)

    # -- traced run only ------------------------------------------------------

    def probe_round(self, index: int, outcome) -> None:
        """Per-round probe calls (after a traced round, outside its wall)."""

    def finish_probes(self) -> None:
        """One-off probes after the last traced round."""

    def layer_metrics(self) -> dict[str, float]:
        """This workload's per-layer metrics (missing names report 0)."""
        return {}

    def coverage(self) -> float:
        """Share of op wall time the trace attributes to named layers."""
        return coverage(self.rec.spans)
