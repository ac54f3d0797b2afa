#!/usr/bin/env python3
"""Self-test of the benchmark on tiny instances (about ten seconds).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it runs perfbench/run.py --tiny once
untraced and once traced and checks that:

  1. both runs exit 0 with correct = true, and every end-to-end metric
     (untraced) and every per-layer metric (traced) is emitted by name with
     the unit BENCHMARK.json gives it;
  2. the traced runs' replays reproduce the one-call runs bit for bit: the
     stage-by-stage flat replay (scale.run_flat per stage) and engine replay
     (linial_color, additive_group_color, reduce_colors) reproduce the colors,
     and the round-at-a-time flat replay (max_rounds = 1) reproduces the
     colors and every stage's round count;
  3. every per-layer metric is reached by at least one workload.

It also checks that run.py fails without printing a result when the
library sources are missing (a directory holding only BENCHMARK.json and
perfbench/).  Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Context stamps a traced run sets to 1 when its replay matched the one-call run.
REPLAY_STAMPS = {
    "scale-gnp": ["flat_stage_replay_identical", "flat_round_replay_identical"],
    "engine-regular": ["engine_stage_replay_identical"],
}


def check(ok, what):
    if not ok:
        print(f"selftest: FAIL {what}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2,
          f"{workload} trace={trace} exited {proc.returncode}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    reached = set()
    for w in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            context, result = run(w, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{w} trace={trace}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{w} trace={trace}: not correct")
            got = result["metrics"]
            check(list(got) == [m["name"] for m in wanted],
                  f"{w} trace={trace}: metric names differ from BENCHMARK.json")
            for m in wanted:
                check(got[m["name"]]["unit"] == m["unit"],
                      f"{w} trace={trace}: {m['name']} has unit {got[m['name']]['unit']}")
                check(isinstance(got[m["name"]]["value"], (int, float)),
                      f"{w} trace={trace}: {m['name']} is not a number")
            if trace == 0:
                for m in wanted:
                    check(got[m["name"]]["value"] != 0, f"{w}: {m['name']} reads 0")
            else:
                reached |= {m["name"] for m in wanted} - set(context["unreached"])
                for stamp in REPLAY_STAMPS.get(w, []):
                    check(context.get(stamp) == 1, f"{w}: {stamp} is not 1")
            print(f"selftest: ok {w} trace={trace}")
    unreached = [m["name"] for m in spec["per_layer"] if m["name"] not in reached]
    check(not unreached, f"per-layer metrics no workload reaches: {unreached}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "run.py without library sources did not fail cleanly")
    print("selftest: ok bare directory fails without a result")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
