#pragma once

// Shared scaffolding of the Figure-1 bench harnesses: scale knobs from the
// environment and one-call "run all three heuristics" drivers.
//
//   DBSP_FULL=1     paper scale (200k subscriptions, 100k events, 5 brokers)
//   DBSP_SUBS=n     override subscription count
//   DBSP_EVENTS=n   override published event count
//   DBSP_STEP_PCT=n pruning-fraction grid step in percent (default 10)
//   DBSP_SHARDS=n   match workers of the engine (default 1 for the
//                   centralized sweep; brokers in the distributed sweep
//                   resolve the knob themselves). No figure depends on it:
//                   pruning always runs the paper's global queue

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "experiment/centralized.hpp"
#include "experiment/distributed.hpp"
#include "experiment/series.hpp"

namespace dbsp::bench {

inline CentralizedConfig centralized_config_from_env() {
  CentralizedConfig cfg;
  const bool full = env_bool("DBSP_FULL", false);
  cfg.subscriptions = static_cast<std::size_t>(
      env_int("DBSP_SUBS", full ? 200000 : 20000));
  cfg.events = static_cast<std::size_t>(env_int("DBSP_EVENTS", full ? 100000 : 4000));
  cfg.training_events =
      static_cast<std::size_t>(env_int("DBSP_TRAINING_EVENTS", 20000));
  cfg.fractions = fraction_grid(env_int("DBSP_STEP_PCT", 10) / 100.0);
  const std::int64_t shards = env_int("DBSP_SHARDS", 1);
  cfg.shards = shards > 0 ? static_cast<std::size_t>(shards) : 1;
  return cfg;
}

inline DistributedConfig distributed_config_from_env() {
  DistributedConfig cfg;
  const bool full = env_bool("DBSP_FULL", false);
  cfg.brokers = static_cast<std::size_t>(env_int("DBSP_BROKERS", 5));
  cfg.subscriptions =
      static_cast<std::size_t>(env_int("DBSP_SUBS", full ? 200000 : 6000));
  cfg.events = static_cast<std::size_t>(env_int("DBSP_EVENTS", full ? 100000 : 1500));
  cfg.training_events =
      static_cast<std::size_t>(env_int("DBSP_TRAINING_EVENTS", 20000));
  cfg.fractions = fraction_grid(env_int("DBSP_STEP_PCT", 10) / 100.0);
  return cfg;
}

inline constexpr std::array<PruneDimension, 3> kDimensions = {
    PruneDimension::NetworkLoad, PruneDimension::Throughput,
    PruneDimension::MemoryUsage};

/// Paper curve labels: index "sel" / "eff" / "mem" per §4.1.
inline const char* curve_suffix(PruneDimension d) {
  switch (d) {
    case PruneDimension::NetworkLoad: return "sel";
    case PruneDimension::Throughput: return "eff";
    case PruneDimension::MemoryUsage: return "mem";
  }
  return "?";
}

template <class Metric>
std::vector<Series> centralized_series(const CentralizedConfig& cfg,
                                       const std::string& prefix, Metric metric) {
  std::vector<Series> out;
  for (const PruneDimension dim : kDimensions) {
    std::fprintf(stderr, "[fig] running centralized sweep, heuristic=%s...\n",
                 to_string(dim));
    const auto result = run_centralized(cfg, dim);
    Series s;
    s.name = prefix + "_" + curve_suffix(dim);
    for (const auto& p : result.points) s.points.emplace_back(p.fraction, metric(p));
    out.push_back(std::move(s));
  }
  return out;
}

template <class Metric>
std::vector<Series> distributed_series(const DistributedConfig& cfg,
                                       const std::string& prefix, Metric metric) {
  std::vector<Series> out;
  for (const PruneDimension dim : kDimensions) {
    std::fprintf(stderr, "[fig] running distributed sweep, heuristic=%s...\n",
                 to_string(dim));
    const auto result = run_distributed(cfg, dim);
    Series s;
    s.name = prefix + "_" + curve_suffix(dim);
    for (const auto& p : result.points) s.points.emplace_back(p.fraction, metric(p));
    out.push_back(std::move(s));
  }
  return out;
}

inline void print_scale_banner(std::size_t subs, std::size_t events) {
  std::printf("# scale: %zu subscriptions, %zu events%s\n", subs, events,
              env_bool("DBSP_FULL", false)
                  ? " (paper scale)"
                  : " (reduced; DBSP_FULL=1 for 200k/100k)");
}

}  // namespace dbsp::bench
