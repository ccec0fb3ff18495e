#!/usr/bin/env python3
"""Parent-vs-HEAD regression gate over the rapidbench workloads.

    python3 ci/bench_gate.py PARENT_DIR

Run from the root of the tree under test (HEAD). PARENT_DIR is a checkout
of the commit to compare against, e.g. `git worktree add ../parent HEAD^`.
Both trees run on the same machine in alternating pairs, so the gate
never compares against numbers taken on another host.

For every workload in HEAD's BENCHMARK.json it runs PAIRS alternating
pairs of `python3 rapidbench/run.py --workload W --seed 1 --seconds
SECONDS --trace 0`, each tree running its own benchmark code, and reads
the last JSON line of each run. It fails (exit 1) when:

* any run exits non-zero or reports `correct: false`;
* HEAD's share of failed operations is higher than the parent's;
* an end-to-end metric is REGRESSED: HEAD's median is worse than the
  parent's median by more than the metric's bound in BENCHMARK.json, and
  worse than every parent run.

A metric worse than the bound but still inside the parent's own range is
printed as UNRESOLVED and does not fail the gate: three pairs cannot tell
it from noise.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 3
SECONDS = 10
SEED = 1


def run_once(tree, workload):
    """One benchmark run in `tree`; returns (ok, result JSON or None)."""
    # Each tree builds into its own default `.bench_build`; a shared
    # CARGO_TARGET_DIR would let one side run the other's binaries.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, "rapidbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    ok = proc.returncode == 0 and result is not None and result.get("correct") is True
    if not ok:
        print(f"  FAILED RUN {tree} {workload}: exit {proc.returncode}\n{proc.stdout}")
    return ok, result


def verdict(metric, parent, head):
    """Classifies HEAD's runs of one metric against the parent's."""
    p_med, h_med = statistics.median(parent), statistics.median(head)
    higher = metric["better"] == "higher"
    if higher:
        beyond_bound = h_med < p_med * (1 - metric["bound"])
        beyond_range = h_med < min(parent)
    else:
        beyond_bound = h_med > p_med * (1 + metric["bound"])
        beyond_range = h_med > max(parent)
    if beyond_bound and beyond_range:
        return "REGRESSED"
    return "UNRESOLVED" if beyond_bound else "ok"


def main():
    if len(sys.argv) != 2 or not os.path.isdir(sys.argv[1]):
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"parent": os.path.abspath(sys.argv[1]), "head": os.getcwd()}
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        results = {"parent": [], "head": []}
        for pair in range(PAIRS):
            order = ("parent", "head") if pair % 2 == 0 else ("head", "parent")
            for side in order:
                ok, result = run_once(trees[side], workload)
                failed |= not ok
                if result is not None:
                    results[side].append(result)
        if not results["parent"] or not results["head"]:
            print(f"{workload}: no results to compare")
            failed = True
            continue
        share = {side: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                 for side, rs in results.items()}
        print(f"{workload}: failed share parent {share['parent']:.4g} head {share['head']:.4g}")
        if share["head"] > share["parent"]:
            print(f"{workload} failed_ratio REGRESSED")
            failed = True
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in results["parent"]]
            head = [r["metrics"][name]["value"] for r in results["head"]]
            status = verdict(metric, parent, head)
            failed |= status == "REGRESSED"
            p_med, h_med = statistics.median(parent), statistics.median(head)
            change = (h_med - p_med) / p_med if p_med else 0.0
            print(f"{workload} {name}: parent median {p_med:.6g} "
                  f"[{min(parent):.6g}..{max(parent):.6g}] head median {h_med:.6g} "
                  f"({change:+.1%}, bound {metric['bound']:.0%}, {metric['better']} is better) "
                  f"{status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
