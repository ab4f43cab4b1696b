"""One benchmark process: set up a workload, run it as a closed-loop client, check it.

run.py starts this script in a fresh interpreter for every measurement, so
that set-up time includes interpreter start and `import hlslab`, and the
curve module's caches start empty. It speaks to run.py through lines on
standard output that begin with PROTOCOL:

    PERFBENCH ready {cpu seconds}      set-up is done; the timed phase starts now
    PERFBENCH result {json}            operations, latencies, peak RSS, problems

Each round's outputs are checked right after the round, outside the timed
region, and then dropped.

Phases (--phase):
    setup   set up, report ready, exit
    timed   run whole rounds until --seconds of operation time by the wall
            clock and at least MIN_OPS operations have passed
    traced  run exactly 2 * max(1, seconds // TRACE_ROUND_EVERY_S) rounds;
            the even rounds are traced, spans going to --trace PATH, and
            the odd ones are not, so that traced and untraced operation
            times meet the same drift in machine speed
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hlslab  # noqa: E402

if Path(hlslab.__file__).resolve().parent != ROOT / "src" / "hlslab":
    sys.exit(f"imported hlslab from {hlslab.__file__}, not from this checkout")

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROTOCOL = "PERFBENCH"
# the highest percentile with ten samples beyond it needs forty samples
MIN_OPS = 40


def say(kind: str, payload: object = None) -> None:
    line = f"{PROTOCOL} {kind}" if payload is None else f"{PROTOCOL} {kind} {json.dumps(payload)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def run(workload, seconds: int, rounds, tracer=None, bindings=None) -> dict:
    latencies_ns: list[int] = []
    wall_latencies_ns: list[int] = []
    traced: list[bool] = []
    errors: list[str] = []
    problems: list[str] = []
    busy_ns = 0
    busy_wall_ns = 0
    attempted = 0
    # an operation's time is the CPU time the process spends in it: on a
    # shared virtual machine the wall clock also counts the time the host
    # gives to other guests (steal), which comes and goes from second to
    # second; the wall time is kept beside it, and ends the timed phase
    cpu, wall = time.process_time_ns, time.perf_counter_ns
    k = 0
    while True:
        if rounds is not None:
            if k >= rounds:
                break
        elif busy_wall_ns >= seconds * 1_000_000_000 and attempted >= MIN_OPS:
            break
        if workload.max_rounds is not None and k >= workload.max_rounds:
            break
        tracing_round = bindings is not None and k % 2 == 0
        if bindings is not None:
            tracing.set_traced(bindings, tracing_round)
        records = []
        for inp in workload.round_inputs(k):
            start_wall, start = wall(), cpu()
            try:
                if tracing_round:
                    out = tracer.run_op(attempted, workload.op, inp)
                else:
                    out = workload.op(inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                busy_ns += cpu() - start
                busy_wall_ns += wall() - start_wall
                attempted += 1
                errors.append(f"op {attempted - 1}: {exc!r}")
                continue
            elapsed = cpu() - start
            elapsed_wall = wall() - start_wall
            busy_ns += elapsed
            busy_wall_ns += elapsed_wall
            attempted += 1
            latencies_ns.append(elapsed)
            wall_latencies_ns.append(elapsed_wall)
            traced.append(tracing_round)
            records.append(workload.record(inp, out))
        if bindings is not None:
            tracing.set_traced(bindings, False)
        # checked and dropped here, so that neither peak RSS nor the
        # collector's work grows with the number of operations completed
        problems += [f"round {k}: {p}" for p in workload.check(records)]
        k += 1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems += workload.check_inputs()
    return {
        "rounds": k,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:20],
        "busy_s": busy_ns / 1e9,
        "busy_wall_s": busy_wall_ns / 1e9,
        "latencies_ms": [ns / 1e6 for ns in latencies_ns],
        "wall_latencies_ms": [ns / 1e6 for ns in wall_latencies_ns],
        "traced": traced,
        "peak_rss_mib": peak_rss_kib / 1024,
        "problems": problems[:20],
        "problem_count": len(problems),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--phase", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--trace", type=Path, help="spans file of the traced phase")
    args = parser.parse_args(argv)
    if (args.phase == "traced") != (args.trace is not None):
        parser.error("--trace goes with --phase traced, and only with it")

    workload = WORKLOADS[args.workload](args.seed)
    # CPU time of this process since it started: interpreter start,
    # imports and the workload's set-up
    say("ready", time.process_time())
    if args.phase == "setup":
        return 0
    if args.phase == "timed":
        say("result", run(workload, args.seconds, None))
        return 0
    tracer = tracing.Tracer()
    bindings = tracing.install(tracer)
    rounds = 2 * max(1, args.seconds // workload.TRACE_ROUND_EVERY_S)
    result = run(workload, args.seconds, rounds, tracer, bindings)
    result["trace"] = tracing.summarize(tracer.spans, sum(result["traced"]), tracer.attack_reports)
    tracer.write(args.trace)
    say("result", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
