#!/usr/bin/env python3
"""The repo's one benchmark: one workload, one process, every metric.

    python3 benchmarks/e2e/run.py --workload lib_partition [--seed N]
        [--seconds S] [--trace [0|1]] [--trace-out spans.jsonl] [--smoke]

A run generates its inputs from ``--seed``, sets the program up, executes
a fixed op list in rounds, checks every output against an oracle outside
the timers, and prints every metric by name with its unit. The last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``, the default) or its per-layer metrics (``--trace 1``).
README.md in this directory is the glossary.

Work is fixed, not time: ``--seconds`` selects how many rounds run (11
at the ``run_seconds`` of ``BENCHMARK.json``, proportionally fewer or
more otherwise), never a deadline inside a round.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Recorder, RoundSamples, tail  # noqa: E402  (this directory)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

ROUNDS = 11  # timed rounds at the nominal --seconds
TRACE_ROUNDS = 3
SMOKE_ROUNDS = 3
CLEARED_ENV = "BENCH_E2E_CLEARED"


def quiet_environment() -> None:
    """Re-exec once with a fixed hash seed and no ``REPRO_*`` switches, so
    the program's *default* code path is what gets measured."""
    switches = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if os.environ.get("PYTHONHASHSEED") == "0" and not switches:
        return
    env = {k: v for k, v in os.environ.items() if k not in switches}
    env["PYTHONHASHSEED"] = "0"
    env[CLEARED_ENV] = ",".join(switches)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def settle() -> None:
    """Collect, then exempt every survivor from the cyclic collector: inside
    the timers it stays enabled but examines only what the timed work itself
    allocated, not the benchmark's retained inputs, samples and spans."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def rounds_for(seconds: int) -> int:
    """Timed rounds for ``--seconds``: a function of the argument alone
    (never of a clock), odd so the median over rounds is a real round."""
    scaled = round(ROUNDS * seconds / SPEC["run_seconds"])
    return max(3, scaled - (scaled + 1) % 2)


def load_program():
    """Import the checkout's ``repro`` — and nothing else by that name."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"run.py: no program to measure under {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not this checkout")
    from lib_workloads import LibDocument, LibPartition, LibUpdate
    from svc_workloads import SvcHot, SvcMixed

    return {w.name: w for w in (LibPartition, LibDocument, LibUpdate, SvcHot, SvcMixed)}


def environment(args, cleared: str, rounds: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        "cleared_env": [name for name in cleared.split(",") if name],
        "gc": "unfreeze+collect+freeze before every round, collector enabled inside timers",
        "clock": "time.perf_counter",
        "flush_policy": "the program's own: fsync on WAL commit, checkpoint and journal seal",
    }


def end_to_end(workload, rec, setup_s: float) -> dict[str, float]:
    rounds = rec.kept(traced=False)

    def over_rounds(per_round) -> float:
        return statistics.median(per_round(r) for r in rounds)

    return {
        "setup_s": setup_s,
        "write_nodes_per_s": over_rounds(RoundSamples.write_nodes_per_s),
        "write_p50_ms": over_rounds(RoundSamples.write_p50_ms),
        "read_ops_per_s": over_rounds(RoundSamples.read_ops_per_s),
        "read_p50_ms": over_rounds(RoundSamples.read_p50_ms),
        "round_s": over_rounds(lambda r: r.wall),
        "partitions_total": workload.partitions_total,
        "stored_bytes_per_user_byte": workload.stored_bytes / workload.user_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_ratio": 1.0 - min(len(rec.failures), rec.attempted) / rec.attempted,
    }


def per_layer(workload, rec) -> dict[str, float]:
    plain, traced = rec.kept(traced=False), rec.kept(traced=True)
    reads = [t for r in rec.rounds for t in r.reads]
    writes = [t for r in rec.rounds for t, _ in r.writes]
    read_pct, read_tail = tail(reads)
    write_pct, write_tail = tail(writes)
    metrics = workload.layer_metrics()
    metrics.update(
        {
            "client.read_tail_ms": read_tail * 1000.0,
            "client.read_tail_pct": read_pct,
            "client.read_samples": len(reads),
            "client.write_tail_ms": write_tail * 1000.0,
            "client.write_tail_pct": write_pct,
            "client.write_samples": len(writes),
            "client.ops_attempted": rec.attempted,
            "client.ops_failed": len(rec.failures),
            "bench.coverage_ratio": workload.coverage(),
            "bench.trace_overhead_ratio": statistics.median(r.wall for r in traced)
            / statistics.median(r.wall for r in plain),
            "bench.rounds": len(traced),
        }
    )
    known = {m["name"] for m in SPEC["per_layer"]}
    unknown = sorted(set(metrics) - known)
    if unknown:
        raise SystemExit(f"run.py: metrics missing from BENCHMARK.json: {unknown}")
    # a layer this workload never enters did no work: it reports 0
    return {name: float(metrics.get(name, 0.0)) for name in sorted(known)}


def run(args, workloads) -> int:
    from repro import telemetry

    cleared = os.environ.get(CLEARED_ENV, "")
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    # the program's own temp files (service journals) stay in the checkout too
    tempfile.tempdir = tmp
    rec = Recorder()
    workload = workloads[args.workload](args.seed, args.smoke, tmp, rec)
    if args.smoke:
        timed = list(range(1, SMOKE_ROUNDS + 1))
    elif args.trace:
        timed = list(range(1, TRACE_ROUNDS + 1))
    else:
        timed = list(range(1, rounds_for(args.seconds) + 1))
    try:
        import_s = perf_counter() - PROCESS_START
        workload.generate([0, *timed])
        generate_s = perf_counter() - PROCESS_START - import_s
        workload.set_up()
        with rec.round(0, keep=False):  # the warm-up round belongs to set-up
            if args.trace and workload.COUNTED_WARM_UP:
                # harvest the program's own counters where no timing is used
                with telemetry.capture() as registry:
                    workload.run_round(0)
                workload.counters = {n: c.value for n, c in registry.counters.items()}
            else:
                workload.run_round(0)
        setup_s = perf_counter() - PROCESS_START

        for tracing in (False, True) if args.trace else (False,):
            rec.tracing = tracing
            for index in timed:
                settle()
                with rec.round(index):
                    outcome = workload.run_round(index)
                workload.verify(index, outcome)
                if tracing:
                    with rec.probing(index):
                        workload.probe_round(index, outcome)
                del outcome
        if args.trace:
            settle()
            workload.finish_probes()
            metrics = per_layer(workload, rec)
            units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        else:
            metrics = end_to_end(workload, rec, setup_s)
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

        print(json.dumps({"environment": environment(args, cleared, len(timed))}))
        print(json.dumps({"workload": workload.description()}, default=str))
        print(
            f"set-up: import {import_s:.3f} s + inputs {generate_s:.3f} s + bring-up "
            f"and warm-up round {setup_s - import_s - generate_s:.3f} s"
        )
        for name, value in metrics.items():
            print(f"{args.workload}/{name:<36} {value:>14.6g} {units[name]}")
        for reason in rec.failures[:20]:
            print(f"FAILED: {reason}")
        if args.trace_out:
            with open(args.trace_out, "w") as out:
                for span in rec.spans:
                    out.write(json.dumps(vars(span)) + "\n")
        result = {
            "correct": not rec.failures,
            "attempted": rec.attempted,
            "failed": min(len(rec.failures), rec.attempted),
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        workload.tear_down()
        tempfile.tempdir = None
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run's directory is still in it


def check_schema(result: dict, trace: bool) -> list[str]:
    """Problems with a run's final JSON line (none = conforms)."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
        return problems
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted={result['attempted']!r}")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"failed={result['failed']} correct={result['correct']}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{name} is not a number")
        elif not trace and metric["value"] == 0:
            problems.append(f"end-to-end metric {name} is 0")
    return problems


def smoke_all(args) -> int:
    """``--smoke`` without ``--workload``: every workload, both modes,
    schema and oracles checked; numbers are never to be compared."""
    status = 0
    for spec in SPEC["workloads"]:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", spec["name"], "--smoke"]
            command += ["--seed", str(args.seed), "--trace", str(trace)]
            start = perf_counter()
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}"] if proc.returncode else []
            if lines:
                problems += check_schema(json.loads(lines[-1]), bool(trace))
            else:
                problems.append("no output")
            verdict = "ok" if not problems else "; ".join(problems)
            print(
                f"smoke {spec['name']:<14} trace={trace} "
                f"{perf_counter() - start:5.1f} s  {verdict}"
            )
            if problems:
                status = 1
                sys.stdout.write(proc.stdout[-2000:])
    print(json.dumps({"smoke": True, "ok": status == 0}))
    return status


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument(
        "--seconds",
        type=int,
        default=SPEC["run_seconds"],
        help="nominal length of the timed phase; selects the number of rounds",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the traced run (per-layer metrics); 0: end-to-end metrics",
    )
    parser.add_argument("--trace-out", help="write the traced run's spans here (JSON lines)")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny inputs, 3 rounds: checks schema and oracles, numbers not comparable",
    )
    args = parser.parse_args()
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required (only --smoke runs all of them)")
        return smoke_all(args)
    quiet_environment()
    return run(args, load_program())


if __name__ == "__main__":
    sys.exit(main())
