#!/usr/bin/env python3
"""A/B the end-to-end benchmark: alternating parent/change pairs.

Extracts two revisions with `git archive` into a work directory, then runs
`perfbench/run.py` in each, alternating which side goes first, one fresh
seed per pair. Per workload and metric it prints the median of each side,
the change's ratio to the parent, the pairs the change won, and the
parent's interquartile range, and flags a median that is worse than the
parent by more than its BENCHMARK.json bound:

    python3 tools/perf_pairs.py --base HEAD~1 --change HEAD --pairs 10 \\
        --first-seed 1 --seconds 15 --work /tmp/pairs

--change WORKTREE measures the working tree's tracked and staged files
(via `git stash create`, which changes nothing). Each tree builds its own
Release binaries on its first run. --json writes every run's result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev, dest):
    if rev == "WORKTREE":
        rev = git("stash", "create") or "HEAD"
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"perf_pairs: git archive {rev} failed")
    return commit


def run(tree, workload, seed, seconds):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perf_pairs: {tree.name} {workload} seed {seed} gave no result:\n"
                 + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(workload, runs, spec):
    print(f"\n{workload}: {len(runs)} pairs")
    print(f"  {'metric':22} {'parent':>10} {'change':>10} {'ratio':>8} {'won':>6}"
          f"  {'parent IQR':>21}  verdict")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["base"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        ratio = mc / mb - 1 if mb else 0.0
        worse = ratio if lower else -ratio
        q1, q3 = quartiles(base) if len(base) > 1 else (mb, mb)
        verdict = "WORSE than bound" if worse > metric["bound"] else "within bound"
        print(f"  {name:22} {mb:10.4g} {mc:10.4g} {ratio:+8.1%} {won:>3}/{len(runs):<2}"
              f"  {q1:10.4g}-{q3:<10.4g}  {verdict}")
    for side in ("base", "change"):
        bad = sum(not r[side]["correct"] for r in runs)
        failed = sum(r[side]["failed"] for r in runs)
        print(f"  {side}: {bad} incorrect runs, {failed} failed operations")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workloads", default="inproc_prune,churn_durable")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for the two extracted trees (outside the repo)")
    parser.add_argument("--json", type=Path, help="write every run's result here")
    args = parser.parse_args()

    trees = {"base": args.work / "base", "change": args.work / "change"}
    commits = {side: extract(getattr(args, side), tree) for side, tree in trees.items()}
    spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
    print(f"base {commits['base'][:12]}  change {commits['change'][:12]}")

    report = {"commits": commits, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run(trees[side], workload, seed, args.seconds)
            runs.append(pair)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['events_per_s']:.0f} ev/s" for side in order),
                flush=True)
        report["workloads"][workload] = runs
        summarize(workload, runs, spec)
    if args.json:
        args.json.write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
