#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the library and the agcbench binary from
source (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs one workload.  The last line of
standard output is one JSON object with exactly the keys correct, attempted,
failed and metrics: every end_to_end metric of BENCHMARK.json for --trace 0,
every per_layer metric for --trace 1.  The line before it is the run's
context stamp.  A traced run writes its spans to
<build dir>/traces/<workload>.json.  A per-layer metric whose layer the
workload never calls reads 0 and is listed under "unreached" in the context.

Exit codes: 0 all outputs checked correct; 1 an output failed its check (the
result line is still printed); 2 build or usage error; 3 the run crashed or
timed out (no result line).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; tool output goes to stderr
    when a step fails."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", out_dir, "-j", jobs])
        for cmd in steps:
            step = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if step.returncode != 0:
                sys.stderr.write(step.stdout)
                fail(2, "build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "agcbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--graph-seed", type=int, default=None,
                    help="graph seed (default 1: each workload's fixed instance)")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instances, for the self-test")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build(build_dir())
    trace_file = os.path.join(build_dir(), "traces", args.workload + ".json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(seconds)), "--trace", str(args.trace)]
    if args.graph_seed is not None:
        cmd += ["--graph-seed", str(args.graph_seed)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        cmd += ["--trace-out", trace_file]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        fail(3, f"{args.workload} exited {proc.returncode} without a result")

    measured = result["metrics"]
    metrics, unreached = {}, []
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(3, f"{args.workload} did not measure {m['name']}")
            got = {"value": 0, "unit": m["unit"]}
            unreached.append(m["name"])
        elif got["unit"] != m["unit"]:
            fail(3, f"{m['name']} measured in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if args.trace:
        context["unreached"] = unreached
        context["trace_file"] = os.path.relpath(trace_file, ROOT)
        context["also_measured"] = {k: v for k, v in measured.items() if k not in metrics}
    correct = bool(result["correct"]) and proc.returncode == 0

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
