#!/usr/bin/env python3
"""Run the dbsp micro benchmarks (plus a scaled-down fig1 sweep) and emit a
machine-readable BENCH_micro.json, run the durable-store benchmarks
(WAL append / snapshot / crash-recovery replay throughput) into
BENCH_store.json, run the network-edge benchmarks (ping RTT, publish and
publish_batch throughput through an in-process NetServer over loopback
TCP) into BENCH_net.json, run the aggregated-routing scale sweep
(micro_routing's subscription-population sweep with sub-linearity and
oracle gates, plus the micro_covering pairwise baseline) into
BENCH_routing.json, then run the scenario soak (all three workload
domains through churn + flash crowd + pruning maintenance +
kill-and-recover) and emit BENCH_scenario.json.

The JSON files are the repo's perf trajectory record: each entry carries
the benchmark name, events/sec, and ns/event (micro) or events/sec,
churn ops/sec, per-phase memory, recovery timings/replay counts, and the
notification-exactness flag (scenario) so later PRs can diff numbers
against this baseline. A scenario oracle mismatch fails the run. Usage:

    cmake --build build --target bench_runner          # via CMake
    tools/bench_runner.py --build-dir build            # directly
    tools/bench_runner.py --build-dir build --quick    # CI smoke settings
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

MICRO_BENCHES = [
    "micro_api",
    "micro_filter",
    "micro_metrics",
    "micro_pruning",
    "micro_selectivity",
    "micro_sharded",
    "micro_trace",
]

# The binaries whose outputs are ratios of two configurations
# (direct-vs-facade, metrics on-vs-off, tracing on-vs-off) that the
# overhead gates check. Each runs as interleaved repetitions and reports
# per-benchmark medians, so a slow stretch of the host lands on both sides
# of a ratio instead of on one.
RATIO_BENCHES = ("micro_api", "micro_metrics", "micro_trace")
RATIO_REPETITIONS = 7


def host_info(context):
    """The host block of every BENCH_*.json. Google Benchmark's context
    provides num_cpus/mhz_per_cpu, but both are null when the first binary
    ran without JSON context (or the runner summarized non-benchmark
    sources); fall back to os.cpu_count() and /proc/cpuinfo so the
    perf-trajectory record always says what machine produced it."""
    num_cpus = (context or {}).get("num_cpus")
    if num_cpus is None:
        num_cpus = os.cpu_count()
    mhz_per_cpu = (context or {}).get("mhz_per_cpu")
    if mhz_per_cpu is None:
        try:
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.lower().startswith("cpu mhz"):
                        mhz_per_cpu = round(float(line.split(":", 1)[1]), 1)
                        break
        except (OSError, ValueError):
            pass
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "num_cpus": num_cpus,
        "mhz_per_cpu": mhz_per_cpu,
    }

# Scaled-down fig1 workload: big enough to exercise the full pipeline
# (training, pruning grid, filtering), small enough for a CI smoke run.
FIG1_ENV = {
    "DBSP_SUBS": "2000",
    "DBSP_EVENTS": "500",
    "DBSP_TRAINING_EVENTS": "1000",
    "DBSP_STEP_PCT": "25",
}

# Quick-mode scenario soak: same phase structure, smaller population.
SCENARIO_QUICK_ENV = {
    "DBSP_SCENARIO_SUBS": "400",
    "DBSP_SCENARIO_EVENTS": "250",
}


def find_binary(build_dir, name):
    for candidate in (
        os.path.join(build_dir, "bench", name),
        os.path.join(build_dir, name),
    ):
        if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
            return candidate
    return None


def run_micro(binary, quick):
    """Run one Google-Benchmark binary with JSON output and normalize it.
    A RATIO_BENCHES binary yields one row per benchmark: the median of its
    repetitions."""
    cmd = [binary, "--benchmark_format=json"]
    ratio_bench = os.path.basename(binary) in RATIO_BENCHES
    if ratio_bench:
        cmd += [f"--benchmark_repetitions={RATIO_REPETITIONS}",
                "--benchmark_enable_random_interleaving=true"]
    if quick:
        # Short min-time, and skip the large-argument variants (10k/50k subs).
        min_time = "0.1" if ratio_bench else "0.05"
        cmd += [f"--benchmark_min_time={min_time}", "--benchmark_filter=-/(10000|50000)$"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{cmd[0]} exited with {proc.returncode}")
    report = json.loads(proc.stdout)
    out = []
    for b in report.get("benchmarks", []):
        if ratio_bench:
            if b.get("aggregate_name") != "median":
                continue
            b = dict(b, name=b["run_name"])
        elif b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
        # One iteration may process many items (a 256-event batch), so the
        # per-event figure comes from the item rate when the benchmark
        # reports one; per-iteration time stays available on its own.
        ns_per_iteration = b.get("real_time", 0.0) * scale
        events_per_sec = b.get("items_per_second")
        if events_per_sec:
            ns_per_event = 1e9 / events_per_sec
        else:
            ns_per_event = ns_per_iteration
            if ns_per_iteration > 0:
                events_per_sec = 1e9 / ns_per_iteration
        out.append(
            {
                "source": os.path.basename(binary),
                "name": b["name"],
                "ns_per_iteration": ns_per_iteration,
                "ns_per_event": ns_per_event,
                "events_per_sec": events_per_sec,
                "bytes_per_sec": b.get("bytes_per_second"),
                "iterations": b.get("iterations"),
                "counters": {
                    k: v
                    for k, v in b.items()
                    if k not in BENCHMARK_FIELDS and isinstance(v, (int, float))
                    and not isinstance(v, bool)
                },
            }
        )
    return out, report.get("context", {})


# The fields Google Benchmark writes for every run; any other numeric field
# of a run is a user counter (state.counters).
BENCHMARK_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name", "run_type",
    "repetitions", "repetition_index", "threads", "iterations", "real_time",
    "cpu_time", "time_unit", "items_per_second", "bytes_per_second", "label",
    "error_occurred", "error_message", "aggregate_name", "aggregate_unit",
}


def sharded_speedup(rows):
    """Summarize the micro_sharded sweep: events/sec per shard count and the
    speedup of each shard count over the 1-shard baseline. Wall-clock, so the
    speedup only materializes on multi-core hosts (see host.num_cpus)."""
    per_shards = {}
    for row in rows:
        name = row.get("name", "")
        if not name.startswith("BM_ShardedMatchBatch/"):
            continue
        shards = name.split("/")[1]
        if shards.isdigit() and row.get("events_per_sec"):
            per_shards[int(shards)] = row["events_per_sec"]
    if 1 not in per_shards:
        return None
    base = per_shards[1]
    return {
        "events_per_sec_by_shards": {str(k): v for k, v in sorted(per_shards.items())},
        "speedup_over_1_shard": {
            str(k): round(v / base, 3) for k, v in sorted(per_shards.items())
        },
    }


def pruning_summary(rows):
    """One prune_to_fraction(0.5) pass over 20k indexed auction
    subscriptions (micro_pruning's BM_PruneToHalf/20000), in ms: the
    pruning part of the inproc_prune workload's set-up. Beside it, a report
    (no gate): one matcher add plus one remove on the 60k IoT table
    (micro_filter's BM_MatcherChurn/60000), in us, the index maintenance a
    pruning pass's reindexes and every churn step pay. Also reported, not
    gated: one trained match, in us, on the 10k auction table
    (BM_CountingMatcherTrained/10000, match_auction_us, full mode only:
    --quick skips the 10k variants) and on the 60k IoT table
    (BM_CountingMatcherTrainedIot/60000, match_iot_us), with its counter
    bumps, tree evaluations and composite-key hits per event beside it
    (match_iot_bumps, match_iot_evals, match_iot_composite_hits)."""
    reported = {
        ("micro_pruning", "BM_PruneToHalf/20000"): ("prune_half_ms", 1e6),
        ("micro_filter", "BM_MatcherChurn/60000"): ("matcher_churn_us", 1e3),
        ("micro_filter", "BM_CountingMatcherTrained/10000"): ("match_auction_us", 1e3),
        ("micro_filter", "BM_CountingMatcherTrainedIot/60000"): ("match_iot_us", 1e3),
    }
    summary = {}
    for row in rows:
        key = reported.get((row["source"], row["name"]))
        if key is not None:
            summary[key[0]] = round(row["ns_per_iteration"] / key[1], 3)
            if key[0] == "match_iot_us":
                for counter in ("bumps", "evals", "composite_hits"):
                    if counter in row.get("counters", {}):
                        summary["match_iot_" + counter] = round(row["counters"][counter], 2)
    return summary if "prune_half_ms" in summary else None


def api_overhead(rows):
    """Summarize micro_api: facade (PubSub::publish_batch, no callbacks)
    vs direct ShardedEngine::match_batch on the same workload, per shard
    count. facade_overhead_pct > 0 means the facade is slower; the public
    API contract keeps it within a few percent."""
    direct, facade = {}, {}
    for row in rows:
        name = row.get("name", "")
        eps = row.get("events_per_sec")
        if not eps:
            continue
        parts = name.split("/")
        if parts[0] == "BM_DirectMatchBatch" and parts[1].isdigit():
            direct[int(parts[1])] = eps
        elif parts[0] == "BM_PubSubPublishBatch" and parts[1].isdigit():
            facade[int(parts[1])] = eps
    common = sorted(set(direct) & set(facade))
    if not common:
        return None
    return {
        "events_per_sec_direct": {str(k): direct[k] for k in common},
        "events_per_sec_facade": {str(k): facade[k] for k in common},
        "facade_overhead_pct": {
            str(k): round((direct[k] / facade[k] - 1.0) * 100.0, 2) for k in common
        },
    }


def metrics_overhead(rows):
    """Summarize micro_metrics: the same publish_batch workload with the
    metrics registry live (default sampling) vs disabled, per shard count,
    plus what one registry scrape costs. overhead_pct > 0 means metrics-on
    is slower; the documented contract keeps it <= 5%."""
    on, off = {}, {}
    scrape_cost_us = None
    for row in rows:
        name = row.get("name", "")
        parts = name.split("/")
        if parts[0] == "BM_MetricsSnapshot" and row.get("ns_per_iteration"):
            scrape_cost_us = round(row["ns_per_iteration"] / 1e3, 3)
            continue
        eps = row.get("events_per_sec")
        if not eps or len(parts) < 2 or not parts[1].isdigit():
            continue
        if parts[0] == "BM_PublishBatchMetricsOn":
            on[int(parts[1])] = eps
        elif parts[0] == "BM_PublishBatchMetricsOff":
            off[int(parts[1])] = eps
    common = sorted(set(on) & set(off))
    if not common and scrape_cost_us is None:
        return None
    return {
        "events_per_sec_metrics_on": {str(k): on[k] for k in common},
        "events_per_sec_metrics_off": {str(k): off[k] for k in common},
        "overhead_pct": {
            str(k): round((off[k] / on[k] - 1.0) * 100.0, 2) for k in common
        },
        "scrape_cost_us": scrape_cost_us,
    }


def trace_overhead(rows):
    """Summarize micro_trace: the same publish_batch workload with per-event
    tracing live (default 1-in-8 head sampling) vs disabled, per shard
    count, plus the raw ring-write and snapshot costs. overhead_pct > 0
    means tracing-on is slower; the documented contract keeps it <= 5%."""
    on, off = {}, {}
    record_ns = None
    snapshot_cost_us = None
    for row in rows:
        name = row.get("name", "")
        parts = name.split("/")
        if parts[0] == "BM_FlightRecorderRecord" and row.get("ns_per_iteration"):
            record_ns = round(row["ns_per_iteration"], 1)
            continue
        if parts[0] == "BM_TracesSnapshot" and row.get("ns_per_iteration"):
            snapshot_cost_us = round(row["ns_per_iteration"] / 1e3, 3)
            continue
        eps = row.get("events_per_sec")
        if not eps or len(parts) < 2 or not parts[1].isdigit():
            continue
        if parts[0] == "BM_PublishBatchTracingOn":
            on[int(parts[1])] = eps
        elif parts[0] == "BM_PublishBatchTracingOff":
            off[int(parts[1])] = eps
    common = sorted(set(on) & set(off))
    if not common and record_ns is None and snapshot_cost_us is None:
        return None
    return {
        "events_per_sec_tracing_on": {str(k): on[k] for k in common},
        "events_per_sec_tracing_off": {str(k): off[k] for k in common},
        "overhead_pct": {
            str(k): round((off[k] / on[k] - 1.0) * 100.0, 2) for k in common
        },
        "ring_record_ns": record_ns,
        "snapshot_cost_us": snapshot_cost_us,
    }


def store_summary(rows):
    """Summarize micro_store: durable subscribes (WAL appends) per second,
    snapshot throughput and time per checkpoint of an unchanged table
    (snapshot_ms), of the churn table after a round of churn, which appends
    a segment (checkpoint_churn_ms), and of its compactions
    (checkpoint_compact_ms, a report, not a gate) per table size,
    recovery-replay throughput per table size, and the CRC-32's bytes per
    second."""
    appends = None
    crc_bytes_per_sec = None
    snapshot = {}
    snapshot_ms = {}
    churn_ms = {}
    compact_ms = {}
    recover = {}
    for row in rows:
        name = row.get("name", "")
        parts = name.split("/")
        if parts[0] == "BM_Crc32":
            crc_bytes_per_sec = row.get("bytes_per_sec")
            continue
        eps = row.get("events_per_sec")
        if not eps:
            continue
        if parts[0] == "BM_DurableSubscribe":
            appends = eps
        elif parts[0] == "BM_SnapshotWrite" and parts[1].isdigit():
            snapshot[int(parts[1])] = eps
            snapshot_ms[int(parts[1])] = round(row["ns_per_iteration"] / 1e6, 3)
        elif parts[0] == "BM_CheckpointUnderChurn" and parts[1].isdigit():
            churn_ms[int(parts[1])] = round(row["ns_per_iteration"] / 1e6, 3)
        elif parts[0] == "BM_CheckpointCompaction" and parts[1].isdigit():
            compact_ms[int(parts[1])] = round(row["ns_per_iteration"] / 1e6, 3)
        elif parts[0] == "BM_RecoverFromWal" and parts[1].isdigit():
            recover[int(parts[1])] = eps
    if (appends is None and not snapshot and not churn_ms and not compact_ms
            and not recover and crc_bytes_per_sec is None):
        return None
    return {
        "durable_subscribes_per_sec": appends,
        "snapshot_subs_per_sec": {str(k): v for k, v in sorted(snapshot.items())},
        "snapshot_ms": {str(k): v for k, v in sorted(snapshot_ms.items())},
        "checkpoint_churn_ms": {str(k): v for k, v in sorted(churn_ms.items())},
        "checkpoint_compact_ms": {str(k): v for k, v in sorted(compact_ms.items())},
        "crc32_bytes_per_sec": crc_bytes_per_sec,
        "recovery_replayed_subs_per_sec": {
            str(k): v for k, v in sorted(recover.items())
        },
    }


def write_store_json(build_dir, out_path, quick, context):
    binary = find_binary(build_dir, "micro_store")
    if binary is None:
        print("[bench_runner] micro_store binary not found; skipping BENCH_store.json")
        return None
    print("[bench_runner] running micro_store ...", flush=True)
    rows, ctx = run_micro(binary, quick)
    result = {
        "schema_version": 1,
        "generated_unix_time": int(time.time()),
        "host": host_info(context or ctx),
        "mode": "quick" if quick else "full",
        "benchmarks": rows,
        "store": store_summary(rows),
    }
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"[bench_runner] wrote {out_path} ({len(rows)} benchmark rows)")
    summary = result["store"]
    if summary is not None:
        crc = summary.get("crc32_bytes_per_sec")
        crc_text = f"{crc / 1e6:.0f} MB/s" if crc else "n/a"
        print(f"[bench_runner] store: snapshot_ms={summary['snapshot_ms']}, "
              f"checkpoint_churn_ms={summary['checkpoint_churn_ms']}, "
              f"checkpoint_compact_ms={summary['checkpoint_compact_ms']}, "
              f"crc32={crc_text}")
    return result


def net_summary(rows):
    """Summarize micro_net: ping round-trip latency (the request-verb floor)
    and publish / publish_batch events per second over loopback TCP."""
    ping_us = None
    publish = None
    batch = None
    for row in rows:
        name = row.get("name", "")
        base = name.split("/")[0]
        if base == "BM_NetPingRoundTrip" and row.get("ns_per_iteration"):
            ping_us = round(row["ns_per_iteration"] / 1e3, 3)
        elif base == "BM_NetPublish":
            publish = row.get("events_per_sec")
        elif base == "BM_NetPublishBatch":
            batch = row.get("events_per_sec")
    if ping_us is None and publish is None and batch is None:
        return None
    return {
        "ping_rtt_us": ping_us,
        "publish_events_per_sec": publish,
        "publish_batch_events_per_sec": batch,
    }


def write_net_json(build_dir, out_path, quick, context):
    binary = find_binary(build_dir, "micro_net")
    if binary is None:
        print("[bench_runner] micro_net binary not found; skipping BENCH_net.json")
        return None
    print("[bench_runner] running micro_net ...", flush=True)
    rows, ctx = run_micro(binary, quick)
    result = {
        "schema_version": 1,
        "generated_unix_time": int(time.time()),
        "host": host_info(context or ctx),
        "mode": "quick" if quick else "full",
        "benchmarks": rows,
        "net": net_summary(rows),
    }
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"[bench_runner] wrote {out_path} ({len(rows)} benchmark rows)")
    return result


def run_fig1(binary):
    env = dict(os.environ)
    env.update(FIG1_ENV)
    start = time.monotonic()
    proc = subprocess.run([binary], capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{binary} exited with {proc.returncode}")
    return {
        "source": os.path.basename(binary),
        "config": FIG1_ENV,
        "elapsed_seconds": round(elapsed, 3),
        "stdout_lines": proc.stdout.strip().splitlines(),
    }


def run_scenario(binary, quick):
    """Run the scenario soak and return its parsed JSON report. Raises on a
    non-zero exit (the binary exits 1 on any oracle mismatch)."""
    env = dict(os.environ)
    if quick:
        env.update(SCENARIO_QUICK_ENV)
    start = time.monotonic()
    proc = subprocess.run([binary], capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{binary} exited with {proc.returncode} (oracle mismatch?)")
    report = json.loads(proc.stdout)
    report["elapsed_seconds"] = round(elapsed, 3)
    return report


def write_scenario_json(build_dir, out_path, quick, context):
    binary = find_binary(build_dir, "scenario_soak")
    if binary is None:
        print("[bench_runner] scenario_soak binary not found; skipping BENCH_scenario.json")
        return None
    print("[bench_runner] running scenario_soak (all domains) ...", flush=True)
    report = run_scenario(binary, quick)
    result = {
        "schema_version": 1,
        "generated_unix_time": int(time.time()),
        "host": host_info(context),
        "mode": "quick" if quick else "full",
        "exact": report.get("exact", False),
        "scenario": report,
    }
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    n_runs = len(report.get("runs", []))
    print(f"[bench_runner] wrote {out_path} ({n_runs} scenario runs, exact={result['exact']})")
    if not result["exact"]:
        raise SystemExit("scenario soak reported oracle mismatches")
    return result


# Quick-mode routing sweep: small enough for a CI smoke lane while still
# crossing the subgroup-cap saturation point that makes the growth curves
# meaningful.
ROUTING_QUICK_ENV = {
    "DBSP_ROUTING_SUBS": "100000",
    "DBSP_ROUTING_EVENTS": "64",
    # The full-scale default (4096) only saturates around a million
    # subscriptions; pin a cap the quick population actually fills so the
    # sub-linearity gates measure the saturated regime.
    "DBSP_ROUTING_SUBGROUPS": "512",
}


def covering_summary(rows):
    """Summarize micro_covering: milliseconds per all-pairs covering sweep
    and per merge_all fixpoint, by subscription count — the quadratic
    baseline the aggregation layer replaces."""
    covering = {}
    merge = {}
    for row in rows:
        name = row.get("name", "")
        parts = name.split("/")
        if len(parts) < 2 or not parts[1].isdigit() or not row.get("ns_per_iteration"):
            continue
        ms = round(row["ns_per_iteration"] / 1e6, 3)
        if parts[0] == "BM_CoveringPairs":
            covering[int(parts[1])] = ms
        elif parts[0] == "BM_MergeAll":
            merge[int(parts[1])] = ms
    if not covering and not merge:
        return None
    return {
        "covering_sweep_ms_by_subs": {str(k): v for k, v in sorted(covering.items())},
        "merge_all_ms_by_subs": {str(k): v for k, v in sorted(merge.items())},
    }


def run_routing(binary, quick):
    """Run the micro_routing scale sweep and return its parsed JSON report.
    Raises on a non-zero exit (the binary exits 1 on an oracle mismatch)."""
    env = dict(os.environ)
    if quick:
        env.update(ROUTING_QUICK_ENV)
    start = time.monotonic()
    proc = subprocess.run([binary], capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{binary} exited with {proc.returncode} (oracle mismatch?)")
    report = json.loads(proc.stdout)
    report["elapsed_seconds"] = round(elapsed, 3)
    return report


def check_routing_gates(report):
    """The acceptance gates over the routing sweep: the sampled oracle must
    be exact, and sub-linearity is asserted between the top two scales (a
    10x population step): the advertisement bytes and the per-event
    admitted-subgroup count must grow by well under the population ratio —
    the subgroup cap plus bounded summaries make both nearly flat once the
    table is large."""
    scales = report.get("scales", [])
    failures = []
    if not report.get("exact", False):
        failures.append("sampled oracle exactness does not hold")
    for scale in scales:
        if scale.get("oracle_mismatches", 1) != 0:
            failures.append(f"oracle mismatches at {scale.get('subs')} subs")
    if len(scales) >= 2:
        lo, hi = scales[-2], scales[-1]
        pop_ratio = hi["subs"] / lo["subs"]
        bytes_ratio = hi["advertised_bytes"] / max(1, lo["advertised_bytes"])
        admitted_ratio = (hi["avg_admitted_subgroups"]
                         / max(1e-9, lo["avg_admitted_subgroups"]))
        print(f"[bench_runner] routing: population x{pop_ratio:.0f} -> "
              f"advertised bytes x{bytes_ratio:.2f}, "
              f"admitted subgroups x{admitted_ratio:.2f}")
        if bytes_ratio > pop_ratio / 2:
            failures.append(
                f"advertised bytes grew x{bytes_ratio:.2f} over a x{pop_ratio:.0f} "
                "population step (not sub-linear)")
        if admitted_ratio > pop_ratio / 2:
            failures.append(
                f"admitted subgroups grew x{admitted_ratio:.2f} over a "
                f"x{pop_ratio:.0f} population step (not sub-linear)")
    return failures


def write_routing_json(build_dir, out_path, quick, context):
    routing_binary = find_binary(build_dir, "micro_routing")
    if routing_binary is None:
        print("[bench_runner] micro_routing binary not found; skipping BENCH_routing.json")
        return None
    covering_rows = []
    covering_binary = find_binary(build_dir, "micro_covering")
    if covering_binary is not None:
        print("[bench_runner] running micro_covering ...", flush=True)
        covering_rows, _ = run_micro(covering_binary, quick)
    print("[bench_runner] running micro_routing scale sweep ...", flush=True)
    report = run_routing(routing_binary, quick)
    failures = check_routing_gates(report)
    result = {
        "schema_version": 1,
        "generated_unix_time": int(time.time()),
        "host": host_info(context),
        "mode": "quick" if quick else "full",
        "exact": report.get("exact", False),
        "routing": report,
        "covering_baseline": covering_summary(covering_rows),
        "benchmarks": covering_rows,
    }
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"[bench_runner] wrote {out_path} "
          f"({len(report.get('scales', []))} scales, exact={result['exact']})")
    if failures:
        raise SystemExit("routing gates failed: " + "; ".join(failures))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default=None, help="default: <build-dir>/BENCH_micro.json")
    parser.add_argument(
        "--scenario-out",
        default=None,
        help="default: <build-dir>/BENCH_scenario.json",
    )
    parser.add_argument(
        "--store-out",
        default=None,
        help="default: <build-dir>/BENCH_store.json",
    )
    parser.add_argument(
        "--net-out",
        default=None,
        help="default: <build-dir>/BENCH_net.json",
    )
    parser.add_argument(
        "--routing-out",
        default=None,
        help="default: <build-dir>/BENCH_routing.json",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: short min-time and only the small benchmark args",
    )
    parser.add_argument(
        "--api-overhead-limit",
        type=float,
        default=10.0,
        help="fail when the PubSub facade is more than this %% slower than the "
        "direct engine call (documented contract: <= 5%%; the default leaves "
        "headroom for runner noise; 0 disables the gate)",
    )
    parser.add_argument(
        "--metrics-overhead-limit",
        type=float,
        default=10.0,
        help="fail when publishing with the metrics registry live is more than "
        "this %% slower than with metrics disabled (documented contract: "
        "<= 5%%; the default leaves headroom for runner noise; 0 disables "
        "the gate)",
    )
    parser.add_argument(
        "--trace-overhead-limit",
        type=float,
        default=10.0,
        help="fail when publishing with per-event tracing live is more than "
        "this %% slower than with tracing disabled (documented contract: "
        "<= 5%% at the default 1-in-8 sampling; the default leaves headroom "
        "for runner noise; 0 disables the gate)",
    )
    args = parser.parse_args()
    out_path = args.out or os.path.join(args.build_dir, "BENCH_micro.json")
    scenario_out = args.scenario_out or os.path.join(args.build_dir, "BENCH_scenario.json")
    store_out = args.store_out or os.path.join(args.build_dir, "BENCH_store.json")
    net_out = args.net_out or os.path.join(args.build_dir, "BENCH_net.json")
    routing_out = args.routing_out or os.path.join(args.build_dir, "BENCH_routing.json")

    benchmarks = []
    context = {}
    missing = []
    for name in MICRO_BENCHES:
        binary = find_binary(args.build_dir, name)
        if binary is None:
            missing.append(name)
            continue
        print(f"[bench_runner] running {name} ...", flush=True)
        rows, ctx = run_micro(binary, args.quick)
        benchmarks.extend(rows)
        context = context or ctx
    if missing:
        raise SystemExit(
            f"missing benchmark binaries {missing}; build with -DDBSP_BUILD_BENCH=ON "
            "and Google Benchmark installed"
        )

    fig1_binary = find_binary(args.build_dir, "fig1a_time_centralized")
    fig1 = None
    if fig1_binary is not None:
        print("[bench_runner] running scaled-down fig1a sweep ...", flush=True)
        fig1 = run_fig1(fig1_binary)

    result = {
        "schema_version": 1,
        "generated_unix_time": int(time.time()),
        "host": host_info(context),
        "mode": "quick" if args.quick else "full",
        "benchmarks": benchmarks,
        "sharded": sharded_speedup(benchmarks),
        "api_overhead": api_overhead(benchmarks),
        "metrics": metrics_overhead(benchmarks),
        "trace": trace_overhead(benchmarks),
        "pruning": pruning_summary(benchmarks),
        "fig1_smoke": fig1,
    }
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"[bench_runner] wrote {out_path} ({len(benchmarks)} benchmark rows)")
    if result["pruning"] is not None:
        print("[bench_runner] pruning: " + ", ".join(
            f"{name}={value}" for name, value in result["pruning"].items()))

    overhead = result["api_overhead"]
    if overhead is not None and args.api_overhead_limit > 0:
        worst = max(overhead["facade_overhead_pct"].values())
        print(f"[bench_runner] api_overhead: worst facade overhead {worst:+.2f}%")
        if worst > args.api_overhead_limit:
            raise SystemExit(
                f"PubSub facade is {worst:.2f}% slower than the direct engine "
                f"call (limit {args.api_overhead_limit}%; contract <= 5%)"
            )

    metrics = result["metrics"]
    if metrics is not None and metrics["overhead_pct"]:
        worst = max(metrics["overhead_pct"].values())
        scrape = metrics.get("scrape_cost_us")
        print(f"[bench_runner] metrics_overhead: worst publish overhead "
              f"{worst:+.2f}%, scrape_cost_us={scrape}")
        if args.metrics_overhead_limit > 0 and worst > args.metrics_overhead_limit:
            raise SystemExit(
                f"publishing with metrics on is {worst:.2f}% slower than with "
                f"metrics off (limit {args.metrics_overhead_limit}%; "
                "contract <= 5%)"
            )

    trace = result["trace"]
    if trace is not None and trace["overhead_pct"]:
        worst = max(trace["overhead_pct"].values())
        print(f"[bench_runner] trace_overhead: worst publish overhead "
              f"{worst:+.2f}%, ring_record_ns={trace.get('ring_record_ns')}, "
              f"snapshot_cost_us={trace.get('snapshot_cost_us')}")
        if args.trace_overhead_limit > 0 and worst > args.trace_overhead_limit:
            raise SystemExit(
                f"publishing with tracing on is {worst:.2f}% slower than with "
                f"tracing off (limit {args.trace_overhead_limit}%; "
                "contract <= 5% at default 1-in-8 sampling)"
            )

    num_cpus = context.get("num_cpus")
    if num_cpus is not None and num_cpus < 4:
        print(f"[bench_runner] WARNING: only {num_cpus} CPUs visible; "
              "overhead ratios and sharded speedups are unreliable on "
              "machines with fewer than 4 cores", file=sys.stderr)

    write_store_json(args.build_dir, store_out, args.quick, context)
    write_net_json(args.build_dir, net_out, args.quick, context)
    write_routing_json(args.build_dir, routing_out, args.quick, context)
    write_scenario_json(args.build_dir, scenario_out, args.quick, context)


if __name__ == "__main__":
    main()
