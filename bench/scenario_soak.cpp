// Scenario soak bench: runs the ScenarioRunner's standard 4-phase soak
// (warmup -> churn -> flash crowd -> drain, pruning maintenance on) for
// every workload domain at the configured shard counts, plus one broker-
// overlay run per domain, and prints a machine-readable JSON report to
// stdout (consumed by tools/bench_runner.py into BENCH_scenario.json).
// Exits non-zero when any run reports an oracle mismatch, so CI can gate
// on delivery exactness. Apart from timings the report is deterministic:
// tools/soak_diff.py compares two of them.
//
// Knobs: DBSP_SCENARIO_SUBS (default 1500), DBSP_SCENARIO_EVENTS (events
// per phase, default 1000), DBSP_SCENARIO_SHARDS (csv, default "1,4"),
// DBSP_SCENARIO_BROKERS (overlay size, 0 skips the overlay run, default 3),
// DBSP_SCENARIO_DOMAINS (csv, default all), DBSP_SCENARIO_DRIFT (drift
// threshold, default 200), DBSP_SCENARIO_CHECK_EVERY (centralized oracle
// sampling, default 7), DBSP_SCENARIO_RECOVER (default 1: one extra
// store-backed kill-and-recover run per domain — crash mid-churn and
// mid-flash-crowd, reopen, assert oracle exactness — reporting recovery
// timings and replayed WAL record counts), DBSP_SCENARIO_AGGREGATION
// (default 0: the overlay runs route events by subgroup summaries; the
// other runs do not read it), DBSP_SCENARIO_TRANSPORT
// ("inprocess" default, or "sockets": drive every run through a real
// NetServer over loopback TCP — pruning is forced off and the overlay
// runs are skipped, both unsupported by the sockets transport),
// DBSP_SCENARIO_TRACING (default 0, sockets only: flight-record every
// publish with DBSP_TRACE_SAMPLE sampling and report two-sided span coverage
// in a "tracing" object per run).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/env.hpp"
#include "scenario/scenario_runner.hpp"

namespace {

using namespace dbsp;

std::vector<std::string> split_csv(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  std::string s = (raw != nullptr && *raw != '\0') ? raw : fallback;
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

void print_phase(const ScenarioPhaseReport& p, bool last) {
  std::printf(
      "        {\"name\": \"%s\", \"events\": %zu, \"subscribes\": %zu, "
      "\"unsubscribes\": %zu, \"prunings\": %zu, \"drift_retrains\": %zu, "
      "\"live_subscriptions\": %zu, \"associations\": %zu, \"matches\": %llu, "
      "\"oracle_checked\": %zu, \"oracle_mismatches\": %zu, "
      "\"match_seconds\": %.6f, \"wall_seconds\": %.6f, "
      "\"recoveries\": %zu, \"recovery_seconds\": %.6f, "
      "\"recovered_subscriptions\": %zu, \"replayed_wal_records\": %llu}%s\n",
      p.name.c_str(), p.events, p.subscribes, p.unsubscribes, p.prunings,
      p.drift_retrains, p.live_subscriptions, p.associations,
      static_cast<unsigned long long>(p.matches), p.oracle_checked,
      p.oracle_mismatches, p.match_seconds, p.wall_seconds, p.recoveries,
      p.recovery_seconds, p.recovered_subscriptions,
      static_cast<unsigned long long>(p.replayed_wal_records), last ? "" : ",");
}

void print_run(const ScenarioReport& r, bool last) {
  const double match_s = r.total_match_seconds();
  const double wall_s = r.total_wall_seconds();
  const double events_per_sec =
      match_s > 0.0 ? static_cast<double>(r.total_events()) / match_s : 0.0;
  const double churn_per_sec =
      wall_s > 0.0 ? static_cast<double>(r.total_churn_ops()) / wall_s : 0.0;
  std::printf("    {\n");
  std::printf("      \"domain\": \"%s\", \"mode\": \"%s\", \"shards\": %zu,\n",
              r.domain.c_str(), r.mode.c_str(), r.shards);
  std::printf("      \"exact\": %s, \"oracle_mismatches\": %zu,\n",
              r.exact() ? "true" : "false", r.total_mismatches());
  if (r.total_recoveries() > 0) {
    const std::uint64_t replayed = r.total_replayed_wal_records();
    const double rec_s = r.total_recovery_seconds();
    std::printf(
        "      \"recovery\": {\"recoveries\": %zu, \"recovery_seconds\": %.6f, "
        "\"replayed_wal_records\": %llu, \"replayed_records_per_sec\": %.1f},\n",
        r.total_recoveries(), rec_s, static_cast<unsigned long long>(replayed),
        rec_s > 0.0 ? static_cast<double>(replayed) / rec_s : 0.0);
  }
  std::printf("      \"events\": %zu, \"churn_ops\": %zu,\n", r.total_events(),
              r.total_churn_ops());
  std::printf("      \"events_per_sec\": %.1f, \"churn_ops_per_sec\": %.1f,\n",
              events_per_sec, churn_per_sec);
  std::printf(
      "      \"maintenance\": {\"admissions\": %llu, \"releases\": %llu, "
      "\"queue_compactions\": %llu, \"full_rescores\": %llu, \"reindexes\": %llu},\n",
      static_cast<unsigned long long>(r.maintenance.admissions),
      static_cast<unsigned long long>(r.maintenance.releases),
      static_cast<unsigned long long>(r.maintenance.queue_compactions),
      static_cast<unsigned long long>(r.maintenance.full_rescores),
      static_cast<unsigned long long>(r.maintenance.reindexes));
  if (!r.metrics_json.empty()) {
    // metrics_json is already a JSON object — embed it verbatim.
    std::printf("      \"metrics\": %s,\n", r.metrics_json.c_str());
    std::printf("      \"scrape_cost_us\": %.3f,\n", r.scrape_cost_us);
  }
  if (r.traced_publishes > 0) {
    std::printf(
        "      \"tracing\": {\"traced_publishes\": %zu, "
        "\"sampled_publishes\": %zu, \"client_traces\": %zu, "
        "\"server_traces\": %zu, \"joined_traces\": %zu, "
        "\"e2e_latency_samples\": %llu},\n",
        r.traced_publishes, r.sampled_publishes, r.client_traces,
        r.server_traces, r.joined_traces,
        static_cast<unsigned long long>(r.e2e_latency_samples));
  }
  std::printf("      \"phases\": [\n");
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    print_phase(r.phases[i], i + 1 == r.phases.size());
  }
  std::printf("      ]\n    }%s\n", last ? "" : ",");
}

}  // namespace

int main() {
  const auto subs = static_cast<std::size_t>(env_int("DBSP_SCENARIO_SUBS", 1500));
  const auto events = static_cast<std::size_t>(env_int("DBSP_SCENARIO_EVENTS", 1000));
  const auto brokers = static_cast<std::size_t>(env_int("DBSP_SCENARIO_BROKERS", 3));
  const auto drift = static_cast<std::size_t>(env_int("DBSP_SCENARIO_DRIFT", 200));
  const auto check_every =
      static_cast<std::size_t>(env_int("DBSP_SCENARIO_CHECK_EVERY", 7));
  const bool recover = env_bool("DBSP_SCENARIO_RECOVER", true);
  const bool aggregation = env_bool("DBSP_SCENARIO_AGGREGATION", false);
  const bool tracing = env_bool("DBSP_SCENARIO_TRACING", false);
  const char* transport_raw = std::getenv("DBSP_SCENARIO_TRANSPORT");
  const std::string transport =
      (transport_raw != nullptr && *transport_raw != '\0') ? transport_raw
                                                           : "inprocess";
  if (transport != "inprocess" && transport != "sockets") {
    std::fprintf(stderr,
                 "[scenario_soak] bad DBSP_SCENARIO_TRANSPORT: '%s' "
                 "(expected 'inprocess' or 'sockets')\n",
                 transport.c_str());
    return 2;
  }
  const bool sockets = transport == "sockets";
  const auto domains = split_csv("DBSP_SCENARIO_DOMAINS", "auction,stock,iot");
  std::vector<std::size_t> shard_counts;
  for (const auto& s : split_csv("DBSP_SCENARIO_SHARDS", "1,4")) {
    // Fail loudly on malformed entries: silently coercing "x4" to 0 would
    // drop the multi-shard coverage this knob exists for.
    char* end = nullptr;
    const unsigned long long n = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || n == 0) {
      std::fprintf(stderr, "[scenario_soak] bad DBSP_SCENARIO_SHARDS entry: '%s'\n",
                   s.c_str());
      return 2;
    }
    shard_counts.push_back(static_cast<std::size_t>(n));
  }

  for (const auto& name : domains) {
    const auto& known = workload_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "[scenario_soak] bad DBSP_SCENARIO_DOMAINS entry: '%s'\n",
                   name.c_str());
      return 2;
    }
  }

  std::vector<ScenarioReport> reports;
  for (const auto& name : domains) {
    const auto domain = make_workload(name);
    for (const std::size_t shards : shard_counts) {
      ScenarioConfig config = ScenarioConfig::soak(subs, events);
      config.shards = shards;
      config.drift_threshold = drift;
      config.check_every = check_every;
      if (sockets) {
        config.transport = ScenarioTransport::kSockets;
        config.pruning = false;  // the wire oracle holds unpruned clones
        config.tracing = tracing;
      }
      std::fprintf(stderr, "[scenario_soak] %s %s N=%zu ...\n", name.c_str(),
                   sockets ? "sockets" : "centralized", shards);
      reports.push_back(ScenarioRunner(*domain, config).run());
    }
    if (brokers > 0 && !sockets) {
      // Overlay exactness check at a reduced scale: every publish floods
      // the line to quiescence, so per-event cost is brokers x higher.
      ScenarioConfig config = ScenarioConfig::soak(subs / 2, events / 2);
      config.brokers = brokers;
      config.shards = shard_counts.front();
      config.drift_threshold = drift;
      config.aggregation = aggregation;
      std::fprintf(stderr, "[scenario_soak] %s overlay B=%zu ...\n", name.c_str(),
                   brokers);
      reports.push_back(ScenarioRunner(*domain, config).run());
    }
    if (recover) {
      // Store-backed kill-and-recover: crash mid-churn and mid-flash-crowd,
      // reopen from snapshot + WAL, and keep asserting oracle exactness.
      namespace fs = std::filesystem;
      // Per-process scratch path: concurrent soaks (parallel CI jobs on one
      // runner) must not delete each other's live store.
#if defined(__unix__) || defined(__APPLE__)
      const std::string owner = std::to_string(::getpid());
#else
      const std::string owner = "0";
#endif
      const fs::path store_dir =
          fs::temp_directory_path() / ("dbsp_soak_store_" + owner + "_" + name);
      fs::remove_all(store_dir);
      ScenarioConfig config = ScenarioConfig::soak(subs / 2, events / 2);
      config.shards = shard_counts.front();
      config.drift_threshold = drift;
      config.check_every = check_every;
      config.store_directory = store_dir.string();
      config.kill_recover_phases = {1, 2};
      if (sockets) {
        config.transport = ScenarioTransport::kSockets;
        config.pruning = false;
        config.tracing = tracing;
      }
      std::fprintf(stderr, "[scenario_soak] %s kill-and-recover (%s) ...\n",
                   name.c_str(), transport.c_str());
      reports.push_back(ScenarioRunner(*domain, config).run());
      std::error_code cleanup_ec;
      fs::remove_all(store_dir, cleanup_ec);
    }
  }

  bool exact = true;
  for (const auto& r : reports) exact = exact && r.exact();

  std::printf("{\n  \"schema_version\": 1,\n");
  std::printf(
      "  \"config\": {\"subs\": %zu, \"events_per_phase\": %zu, \"brokers\": %zu, "
      "\"drift_threshold\": %zu, \"check_every\": %zu, \"recover\": %s, "
      "\"aggregation\": %s, \"transport\": \"%s\", \"tracing\": %s},\n",
      subs, events, brokers, drift, check_every, recover ? "true" : "false",
      aggregation ? "true" : "false", transport.c_str(),
      tracing ? "true" : "false");
  std::printf("  \"exact\": %s,\n", exact ? "true" : "false");
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    print_run(reports[i], i + 1 == reports.size());
  }
  std::printf("  ]\n}\n");

  if (!exact) {
    std::fprintf(stderr, "[scenario_soak] ORACLE MISMATCH — delivery not exact\n");
    return 1;
  }
  std::fprintf(stderr, "[scenario_soak] all %zu runs exact\n", reports.size());
  return 0;
}
