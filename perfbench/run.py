"""hlslab benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload secp-session --seed 1 --seconds 28 --trace 0

Run from anywhere; the checkout is found from this file's location and
hlslab is imported from its src/. Every measurement runs in a fresh
interpreter (client.py) as one closed-loop client on one thread.

--trace 0 measures the end-to-end metrics. SETUP_REPEATS set-up-only
processes, half before and half after the measured process, are started
one after another; the CPU time each process, the measured one too, has
spent when it reports "ready" is one set-up sample, and setup_s is their
median. The measured process runs whole rounds of operations until
--seconds of operation time have passed; ops_per_s, latency_p50_ms and
latency_tail_ms are taken over all its operations, each timed by the CPU
time the process spent in it. Times are CPU times because on a shared
virtual machine the wall clock also runs while the host serves other
guests; the wall-clock figures go to the result file beside them.

--trace 1 measures the per-layer metrics. One process runs a fixed number
of rounds, traced and untraced in turn; per-layer metrics come from the
spans of the traced rounds, and their median operation time against the
untraced rounds' is printed as the tracing overhead. No end-to-end metric
comes from a traced run.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A copy, with the raw samples, goes to perfbench/out/, with the spans file
of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

# set-up processes per run, half before and half after the measured one, so
# that the median spans the run's drift in machine speed
SETUP_REPEATS = 8
CHILD_TIMEOUT_S = 150
PROTOCOL = "PERFBENCH"


class ChildFailed(Exception):
    pass


def child(workload: str, seed: int, seconds: int, phase: str, trace=None):
    """Run client.py; returns ((CPU, wall) seconds from start to ready, result or None)."""
    cmd = [sys.executable, str(HERE / "client.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--phase", phase]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    ready_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PROTOCOL + " "):
                continue
            kind, _, payload = line[len(PROTOCOL) + 1:].rstrip("\n").partition(" ")
            if kind == "ready":
                ready_s = (json.loads(payload), time.perf_counter() - start)
            elif kind == "result":
                result = json.loads(payload)
    finally:
        killer.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready_s is None or (phase != "setup" and result is None):
        raise ChildFailed(f"{workload} {phase} process exited with code {code}")
    return ready_s, result


def tail(latencies: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - 11)]


def end_to_end(args) -> tuple[dict, dict, str]:
    def setup_samples(count: int) -> list[float]:
        return [child(args.workload, args.seed, args.seconds, "setup")[0]
                for _ in range(count)]

    setups = setup_samples(SETUP_REPEATS // 2)
    ready_s, res = child(args.workload, args.seed, args.seconds, "timed")
    setups += [ready_s] + setup_samples(SETUP_REPEATS - SETUP_REPEATS // 2)
    latencies, wall = res["latencies_ms"], res["wall_latencies_ms"]
    if not latencies:
        raise ChildFailed(f"{args.workload}: no operation completed")
    metrics = {
        "ops_per_s": len(latencies) / res["busy_s"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail(latencies),
        "setup_s": statistics.median(cpu for cpu, _ in setups),
        "peak_rss_mib": res["peak_rss_mib"],
    }
    units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mib": "MiB"}
    pct = 100 * (1 - 10 / len(latencies))
    detail = {
        "latency_tail_percentile": pct,
        "setup_samples_cpu_s": [cpu for cpu, _ in setups],
        "setup_samples_wall_s": [w for _, w in setups],
        "wall": {"ops_per_s": len(wall) / res["busy_wall_s"],
                 "latency_p50_ms": statistics.median(wall), "latency_tail_ms": tail(wall),
                 "setup_s": statistics.median(w for _, w in setups)},
        "runs": [res],
    }
    summary = (f"{res['attempted']} ops in {res['busy_s']:.2f} s of operation time;"
               f" latency_tail_ms is p{pct:.1f} of {len(latencies)} samples;"
               f" setup_s is the median of {len(setups)} processes")
    return {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}, detail, summary


def per_layer(args, names: dict[str, str]) -> tuple[dict, dict, str]:
    spans_file = OUT / f"{args.workload}-seed{args.seed}.spans.json"
    _, res = child(args.workload, args.seed, args.seconds, "traced", trace=spans_file)
    values = tracing.layer_metrics(res["trace"], names)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in names.items()}
    by_kind = {True: [], False: []}
    for ms, traced in zip(res["latencies_ms"], res["traced"]):
        by_kind[traced].append(ms)
    overhead = statistics.median(by_kind[True]) / statistics.median(by_kind[False]) - 1
    detail = {"tracing_overhead": overhead, "spans_file": str(spans_file.relative_to(ROOT)),
              "trace": res["trace"], "runs": [res]}
    summary = (f"{len(by_kind[True])} traced and {len(by_kind[False])} untraced ops in"
               f" alternate rounds; tracing overhead {100 * overhead:+.1f}% (median operation"
               " time, traced against untraced)")
    return metrics, detail, summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hlslab" / "__init__.py").is_file():
        print(f"no hlslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            names = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, detail, summary = per_layer(args, names)
        else:
            metrics, detail, summary = end_to_end(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    runs = detail["runs"]
    problems = [p for r in runs for p in r["problems"]]
    errors = [e for r in runs for e in r["errors"]]
    for line in problems + errors:
        print(line, file=sys.stderr)
    result = {
        "correct": not any(r["problem_count"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, detail=detail), indent=1) + "\n"
    )
    print(f"{args.workload} seed {args.seed}: {summary}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
