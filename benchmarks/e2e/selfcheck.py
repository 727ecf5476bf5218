#!/usr/bin/env python3
"""Self-check of the benchmark's own arithmetic (stdlib ``unittest``).

    python3 benchmarks/e2e/selfcheck.py

Covers the aggregator (median of round medians, nearest-rank p50, the
">= 10 samples beyond" tail rule, the odd-rank rule for read mixes), the
span arithmetic (self time, coverage, per-round sums, attribution of
probe spans) and the shape of ``BENCHMARK.json``. It needs no ``repro``
import and is not collected by the tier-1 suite (``testpaths = tests``).
"""

from __future__ import annotations

import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, RoundSamples, Span  # noqa: E402


class Aggregator(unittest.TestCase):
    def test_p50_is_a_real_sample(self):
        self.assertEqual(spans.p50([4.0, 1.0, 3.0, 2.0]), 2.0)  # never 2.5
        self.assertEqual(spans.p50([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(spans.p50([7.0]), 7.0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(spans.tail(list(range(1, 1001))), (99, 990))
        self.assertEqual(spans.tail(list(range(1, 201))), (95, 190))
        self.assertEqual(spans.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(spans.tail(list(range(1, 21))), (50, 10))
        self.assertEqual(spans.tail(list(range(1, 20))), (0, 19))  # too few for any

    def test_median_of_round_medians_not_pooled(self):
        rec = Recorder()
        # two slow rounds of 3 writes and one fast round of 9: the pooled
        # median is the fast value, the median of round medians the slow one
        for index, latencies in enumerate([[10.0] * 3, [10.0] * 3, [1.0] * 9], start=1):
            rec.rounds.append(
                RoundSamples(
                    index,
                    writes=[(t, 5) for t in latencies],
                    reads=[t / 10 for t in latencies],
                    read_wall=sum(latencies) / 10,
                    wall=sum(latencies),
                )
            )

        class Totals:
            partitions_total, stored_bytes, user_bytes = 7, 30, 20

        metrics = run.end_to_end(Totals, rec, setup_s=1.5)
        self.assertEqual(metrics["write_p50_ms"], 10_000.0)
        self.assertEqual(metrics["read_p50_ms"], 1000.0)
        self.assertEqual(metrics["write_nodes_per_s"], 0.5)  # 15 nodes / 30 s
        self.assertEqual(metrics["read_ops_per_s"], 1.0)
        self.assertEqual(metrics["round_s"], 30.0)
        self.assertEqual(metrics["stored_bytes_per_user_byte"], 1.5)
        self.assertEqual(metrics["ops_ok_ratio"], 1.0)
        rec.fail("one op differed")
        self.assertLess(run.end_to_end(Totals, rec, 1.5)["ops_ok_ratio"], 1.0)

    def test_read_mix_must_have_an_unambiguous_median_rank(self):
        spans.check_read_mix(["a", "b", "c"] * 5)
        with self.assertRaises(ValueError):
            spans.check_read_mix(["a", "b"] * 5)  # even number of distinct ops
        with self.assertRaises(ValueError):
            spans.check_read_mix(["a", "a", "b", "c"])  # not issued equally often

    def test_rounds_depend_on_the_argument_only(self):
        nominal = run.SPEC["run_seconds"]
        self.assertEqual(run.rounds_for(nominal), run.ROUNDS)
        self.assertEqual(run.rounds_for(1), 3)
        for seconds in range(1, 61):
            self.assertEqual(run.rounds_for(seconds) % 2, 1)


class SpanArithmetic(unittest.TestCase):
    def trace(self) -> list[Span]:
        return [
            Span(0, "op.write", 0.0, 10.0, None, 1),
            Span(1, "layer.a", 0.0, 3.0, 0, 1),
            Span(2, "layer.b", 3.0, 7.0, 0, 1),
            Span(3, "op.read", 10.0, 12.0, None, 1),
            Span(4, "layer.a", 10.0, 12.0, 3, 1),
            Span(5, "layer.a", 20.0, 21.0, None, 2),  # a probe: no op
            Span(6, "op.other", 30.0, 35.0, None, 2),
        ]

    def test_self_time_is_span_minus_children(self):
        self.assertEqual(spans.self_times(self.trace()), {0: 3.0, 3: 0.0, 6: 5.0})

    def test_coverage_counts_read_and_write_ops_only(self):
        self.assertAlmostEqual(spans.coverage(self.trace()), 9.0 / 12.0)
        self.assertEqual(spans.coverage([]), 0.0)

    def test_seconds_per_round_is_a_median_of_round_sums(self):
        self.assertEqual(spans.seconds_per_round(self.trace(), "layer.a"), 3.0)  # {5, 1}
        self.assertEqual(spans.seconds_per_round(self.trace(), "layer.b"), 4.0)
        self.assertEqual(spans.seconds_per_round(self.trace(), "absent"), 0.0)
        # derived time = probe minus the part another probe explains
        derived = spans.seconds_per_round(self.trace(), "layer.b") - 1.0
        self.assertEqual(derived, 3.0)

    def test_median_ms(self):
        self.assertEqual(spans.median_ms(self.trace(), "layer.a"), 2000.0)

    def test_recorder_parents_and_probe_rounds(self):
        rec = Recorder()
        rec.tracing = True
        with rec.round(1):
            with rec.write(nodes=4):
                rec.call("layer.a", sum, [1, 2])
            with rec.read_phase():
                with rec.read():
                    rec.call("layer.b", sum, [3])
        with rec.probing(1):
            rec.call("probe.c", sum, [])
        by_name = {span.name: span for span in rec.spans}
        self.assertEqual(by_name["layer.a"].parent, by_name["op.write"].span_id)
        self.assertEqual(by_name["layer.b"].parent, by_name["op.read"].span_id)
        self.assertIsNone(by_name["probe.c"].parent)
        self.assertEqual(by_name["probe.c"].round, 1)
        (samples,) = rec.rounds
        self.assertEqual((len(samples.writes), len(samples.reads)), (1, 1))
        self.assertEqual(samples.writes[0][1], 4)
        self.assertGreater(samples.read_wall, 0.0)
        self.assertEqual(rec.attempted, 2)

    def test_untraced_recorder_keeps_no_spans_and_drops_warm_up(self):
        rec = Recorder()
        with rec.round(0, keep=False):
            with rec.write(nodes=1):
                self.assertEqual(rec.call("layer.a", sum, [1, 2]), 3)
        self.assertEqual((rec.spans, rec.rounds, rec.attempted), ([], [], 0))


class Contract(unittest.TestCase):
    """``BENCHMARK.json`` against the limits its consumer enforces."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_shape(self):
        spec = run.SPEC
        self.assertEqual(
            sorted(spec),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        )
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for metric in spec["end_to_end"]:
            self.assertEqual(sorted(metric), ["better", "bound", "name", "unit"])
            self.assertTrue(0 <= metric["bound"] <= 0.25)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], self.UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for workload in spec["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_schema_check_accepts_and_rejects(self):
        good = {
            "correct": True,
            "attempted": 3,
            "failed": 0,
            "metrics": {
                m["name"]: {"value": 1.0, "unit": m["unit"]} for m in run.SPEC["end_to_end"]
            },
        }
        self.assertEqual(run.check_schema(good, trace=False), [])
        self.assertTrue(run.check_schema(good, trace=True))  # wrong metric set
        self.assertTrue(run.check_schema({**good, "failed": 1, "correct": False}, False))
        bad = {**good, "metrics": {**good["metrics"], "setup_s": {"value": 0, "unit": "s"}}}
        self.assertTrue(run.check_schema(bad, trace=False))


if __name__ == "__main__":
    unittest.main()
