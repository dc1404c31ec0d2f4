#!/usr/bin/env python3
"""End-to-end benchmark of dbsp.

Builds the library, the dbspd daemon and the benchmark driver from source
(Release), runs one workload, checks its outputs and prints one JSON result
line as the last line of stdout:

    python3 perfbench/run.py --workload inproc_prune --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the run's spans next to the build). The build
lands in $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The
workloads, their loops and the per-layer to end-to-end mapping are recorded
in perfbench/workloads.json.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "dbspd", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def build_type(build_dir):
    cache = build_dir / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def context(seed, btype):
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except OSError:
        pass
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "git_commit": commit,
        "build_type": btype,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    if args.workload not in {w["name"] for w in spec["workloads"]} or args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    build(build_dir)
    btype = build_type(build_dir)
    if btype != "Release":
        fail(f"refusing to report from a {btype or 'unset'} build type; Release is required")

    work = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(build_dir / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", str(build_dir / "daemon" / "dbspd"),
        "--work", str(work),
        "--spans", str(spans),
    ]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the driver left behind
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if not lines:
        fail(f"driver exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(got))}, "
             f"extra {sorted(set(got) - set(declared))}, units {sorted(n for n in got if got[n] != declared.get(n))}")

    detail = result.get("detail", {})
    attempted = result["attempted"]
    detail["failed_ratio"] = result["failed"] / attempted if attempted else None
    print("# context " + json.dumps(context(args.seed, btype)))
    print("# detail " + json.dumps(detail))
    final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    sys.exit(0 if proc.returncode == 0 and final["correct"] else 1)


if __name__ == "__main__":
    main()
