"""Op samples, benchmark-side spans and the aggregation rules.

Everything here is measured from *outside* the program: an op is timed
around the public calls it makes, and in a traced run every public call
additionally gets a child span. Nothing in this module imports
``repro``; ``selfcheck.py`` tests the arithmetic.

Aggregation rules (README.md, "How the numbers are made"):

* a round yields one value per timed metric (a rate, or the nearest-rank
  median of its op latencies); the reported figure is the **median over
  rounds** of those values — never a pooled mean or pooled percentile;
* a p50 is a real sample (nearest rank), never an interpolation;
* a tail is the highest of p99/p95/p90/p75/p50 that still has at least
  ten samples beyond it, reported with its percentile and sample count;
* an op span's self time is its duration minus its child spans; time a
  probe measures outside any op is attributed by subtraction and
  labelled *derived*.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Optional

TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_SAMPLES_BEYOND = 10


# -- pure aggregation ---------------------------------------------------------


def p50(samples: list[float]) -> float:
    """Nearest-rank median: the ceil(n/2)-th smallest sample."""
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2]


def tail(samples: list[float]) -> tuple[int, float]:
    """``(percentile, value)`` of the highest percentile in
    :data:`TAIL_PERCENTILES` with >= 10 samples beyond it; ``(0, max)``
    when even p50 has fewer (the sample is too small for any tail)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(n * pct / 100)  # nearest rank, 1-based
        if n - rank >= MIN_SAMPLES_BEYOND:
            return pct, ordered[rank - 1]
    return 0, ordered[-1]


def check_read_mix(ops: list) -> None:
    """A round's read mix must give its p50 an unambiguous rank: an odd
    number of distinct ops, each issued equally often."""
    counts: dict = {}
    for op in ops:
        counts[op] = counts.get(op, 0) + 1
    if len(counts) % 2 == 0 or len(set(counts.values())) != 1:
        raise ValueError(
            f"read mix has {len(counts)} distinct ops issued "
            f"{sorted(set(counts.values()))} times; need an odd number of "
            "distinct ops, each issued equally often"
        )


# -- samples ------------------------------------------------------------------


@dataclass
class RoundSamples:
    """What one round measured (latencies in seconds)."""

    index: int
    traced: bool = False
    #: (latency, document nodes written) per write op
    writes: list[tuple[float, int]] = field(default_factory=list)
    reads: list[float] = field(default_factory=list)
    #: wall time of the read phase(s): the denominator of read_ops_per_s
    read_wall: float = 0.0
    #: (name, latency) of ops that are neither reads nor writes
    others: list[tuple[str, float]] = field(default_factory=list)
    wall: float = 0.0

    def write_nodes_per_s(self) -> float:
        return sum(n for _, n in self.writes) / sum(t for t, _ in self.writes)

    def write_p50_ms(self) -> float:
        return p50([t for t, _ in self.writes]) * 1000.0

    def read_ops_per_s(self) -> float:
        return len(self.reads) / self.read_wall

    def read_p50_ms(self) -> float:
        return p50(self.reads) * 1000.0


@dataclass
class Span:
    """One benchmark-side span; ``parent`` is the id of the op span that
    caused it (None for op spans and for probes outside any op)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    round: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects op samples always, spans only while ``tracing``."""

    def __init__(self) -> None:
        self.rounds: list[RoundSamples] = []
        self.spans: list[Span] = []
        self.tracing = False
        self.failures: list[str] = []
        self._round: Optional[RoundSamples] = None
        #: round that parentless spans outside a round belong to (probes
        #: and oracle calls made right after round N); -1 = none
        self._probe_round = -1
        self._op: Optional[int] = None
        self._next_id = 0

    # -- rounds -----------------------------------------------------------

    @contextmanager
    def round(self, index: int, keep: bool = True) -> Iterator[RoundSamples]:
        """Time one whole round; ``keep=False`` discards it (warm-up)."""
        samples = RoundSamples(index, traced=self.tracing)
        self._round = samples
        start = perf_counter()
        try:
            yield samples
        finally:
            samples.wall = perf_counter() - start
            self._round = None
        if keep:
            self.rounds.append(samples)

    @contextmanager
    def probing(self, index: int) -> Iterator[None]:
        """Attribute spans recorded outside the round's wall (per-round
        probes, oracle calls) to round ``index``."""
        self._probe_round = index
        try:
            yield
        finally:
            self._probe_round = -1

    def kept(self, traced: bool) -> list[RoundSamples]:
        return [r for r in self.rounds if r.traced == traced]

    @property
    def attempted(self) -> int:
        """Ops of every kept round (warm-up ops are never verified)."""
        return sum(len(r.writes) + len(r.reads) + len(r.others) for r in self.rounds)

    # -- ops --------------------------------------------------------------

    @contextmanager
    def _op_span(self, name: str) -> Iterator[list[float]]:
        """Time one op; yields a one-slot list that receives its latency."""
        span_id = self._next_id
        self._next_id += 1
        self._op = span_id
        box = [0.0]
        start = perf_counter()
        try:
            yield box
        finally:
            end = perf_counter()
            self._op = None
        box[0] = end - start
        if self.tracing:
            self.spans.append(Span(span_id, name, start, end, None, self._round.index))

    @contextmanager
    def write(self, nodes: int) -> Iterator[None]:
        with self._op_span("op.write") as box:
            yield
        self._round.writes.append((box[0], nodes))

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._op_span("op.read") as box:
            yield
        self._round.reads.append(box[0])

    @contextmanager
    def other(self, name: str) -> Iterator[None]:
        with self._op_span(f"op.{name}") as box:
            yield
        self._round.others.append((name, box[0]))

    @contextmanager
    def read_phase(self) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self._round.read_wall += perf_counter() - start

    def add_reads(self, latencies: list[float]) -> None:
        """Reads a client thread timed itself (one closed loop each)."""
        self._round.reads.extend(latencies)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call into the program; a traced run records it as a span (a
        child of the running op, or a parentless probe span)."""
        if not self.tracing:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            index = self._round.index if self._round is not None else self._probe_round
            self.spans.append(
                Span(span_id, name, start, perf_counter(), self._op, index)
            )

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def direct(_name: str, fn: Callable, *args, **kwargs):
    """``Recorder.call`` without a recorder: call, record nothing."""
    return fn(*args, **kwargs)


# -- trace arithmetic -----------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per op span: duration minus its child spans."""
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    return {
        span.span_id: span.seconds - children.get(span.span_id, 0.0)
        for span in spans
        if span.parent is None and span.name.startswith("op.")
    }


def coverage(spans: list[Span]) -> float:
    """Share of read/write op wall time that child spans account for
    (1 - self time / op time)."""
    ops = {
        s.span_id: s.seconds
        for s in spans
        if s.parent is None and s.name in ("op.write", "op.read")
    }
    if not ops:
        return 0.0
    own = self_times(spans)
    return 1.0 - sum(own[span_id] for span_id in ops) / sum(ops.values())


def seconds_per_round(spans: list[Span], name: str) -> float:
    """Median over traced rounds of the summed duration of ``name`` spans."""
    per_round: dict[int, float] = {}
    for span in spans:
        if span.name == name and span.round >= 0:
            per_round[span.round] = per_round.get(span.round, 0.0) + span.seconds
    return statistics.median(per_round.values()) if per_round else 0.0


def median_ms(spans: list[Span], name: str) -> float:
    """Median duration (ms) of every ``name`` span."""
    durations = [s.seconds for s in spans if s.name == name]
    return statistics.median(durations) * 1000.0 if durations else 0.0
