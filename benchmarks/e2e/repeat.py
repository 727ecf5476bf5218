#!/usr/bin/env python3
"""Does the benchmark agree with itself? Two sets of full runs, compared.

    python3 benchmarks/e2e/repeat.py [--runs 5] [--seed 2006] [--sweep]
        [--output REPEATABILITY.json]

Default mode: sets ``A`` and ``B`` are ``--runs`` runs of every workload
on one seed, plus a set ``C`` on ``seed + 1``. ``--sweep`` mode: ``A`` and
``B`` each run every workload once on each of ``--runs`` seeds (``seed``,
``seed + 1``, ...), which is how a gate that varies the seed sees the
benchmark. Runs are interleaved across workloads *and* sets so that
machine drift is shared instead of landing on one side.

For every (workload, end-to-end metric) the report gives both set
medians, how much worse ``B``'s median is than ``A``'s as a share of
``A``'s, each set's quartile spread (``Q3 - Q1`` of
``statistics.quantiles(values, n=4)`` over the median) and the bound
from ``BENCHMARK.json``. The exit status is non-zero when

* a pair of medians differs by more than the metric's bound, or by more
  than ISSUE 13 allows two sets of runs of the same code to disagree
  (a tenth; a twentieth for ``peak_rss_mb``) where the bound is wider;
* on one seed, a count is not exact;
* in ``--sweep`` mode, a set's quartile spread exceeds the bound
  (``setup_s`` excepted) — the gate the consumer of ``BENCHMARK.json``
  applies before it accepts the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: metrics that no clock feeds: within one seed they must repeat exactly
EXACT = ("partitions_total", "stored_bytes_per_user_byte", "ops_ok_ratio")
#: how far two sets of runs of the *same code* may disagree (ISSUE 13). A
#: regression bound also has to cover the quartile spread over seeds and may
#: be wider, but it never excuses a larger disagreement than this.
AGREE = {"peak_rss_mb": 0.05}
AGREE_DEFAULT = 0.10


def run_once(workload: str, seed: int) -> dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"repeat.py: {' '.join(command)} failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(workload: str, runs: dict[str, list[dict]], same_seed: bool) -> list[dict]:
    rows = []
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        row = {
            "workload": workload,
            "metric": name,
            "unit": metric["unit"],
            "bound": bound,
            "median_a": statistics.median(a),
            "median_b": statistics.median(b),
            "spread_a": spread(a),
            "spread_b": spread(b),
            "values_a": a,
            "values_b": b,
        }
        row["worsening"] = worsening(row["median_a"], row["median_b"], metric["better"])
        row["limit"] = min(bound, AGREE.get(name, AGREE_DEFAULT))
        # both directions: "same code" has no better side
        row["ok"] = abs(row["worsening"]) <= row["limit"]
        if same_seed and name in EXACT:
            row["exact"] = len(set(a + b)) == 1
            row["ok"] = row["ok"] and row["exact"]
        if not same_seed and name != "setup_s":
            row["steady"] = max(row["spread_a"], row["spread_b"]) <= bound
            row["ok"] = row["ok"] and row["steady"]
        if "C" in runs:
            row["values_c"] = [r[name] for r in runs["C"]]
            row["median_c"] = statistics.median(row["values_c"])
        rows.append(row)
    return rows


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs (or seeds) per set")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--sweep", action="store_true", help="one run per seed, not one seed")
    parser.add_argument("--output", type=Path, help="write the full report here as JSON")
    args = parser.parse_args()

    sets = ("A", "B") if args.sweep else ("A", "B", "C")
    results = {w: {s: [] for s in sets} for w in workloads}
    started = perf_counter()
    for i in range(args.runs):
        for label in sets:
            if args.sweep:
                seed = args.seed + i
            else:
                seed = args.seed + (1 if label == "C" else 0)
            for workload in workloads:
                results[workload][label].append(run_once(workload, seed))
                print(
                    f"[{perf_counter() - started:6.0f} s] {label}{i + 1} {workload} seed {seed}",
                    file=sys.stderr,
                )

    rows = [row for w in workloads for row in compare(w, results[w], not args.sweep)]
    print(
        f"{'workload':<14}{'metric':<28}{'median A':>12}{'median B':>12}"
        f"{'B worse':>9}{'spread A':>10}{'spread B':>10}{'bound':>7}"
    )
    for row in rows:
        flag = "" if abs(row["worsening"]) <= row["limit"] else "  EXCEEDS"
        if row.get("exact") is False:
            flag += "  NOT EXACT"
        if row.get("steady") is False:
            flag += "  SPREAD"
        print(
            f"{row['workload']:<14}{row['metric']:<28}{row['median_a']:>12.5g}"
            f"{row['median_b']:>12.5g}{row['worsening']:>+9.1%}{row['spread_a']:>10.1%}"
            f"{row['spread_b']:>10.1%}{row['bound']:>7.2f}{flag}"
        )
    if args.output:
        head = {
            "mode": "sweep" if args.sweep else "same-seed",
            "runs_per_set": args.runs,
            "seed": args.seed,
            "sets": {
                "A": "seeds seed..seed+runs-1" if args.sweep else "seed",
                "B": "the same again, interleaved with A",
                **({} if args.sweep else {"C": "seed + 1: counts change with the seed"}),
            },
            "ok": all(row["ok"] for row in rows),
        }
        # every run made is in the report, one (workload, metric) per line
        lines = ",\n".join("  " + json.dumps(row) for row in rows)
        args.output.write_text(json.dumps(head)[:-1] + ', "rows": [\n' + lines + "\n]}\n")
    return 0 if all(row["ok"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
