#pragma once

#include <array>
#include <optional>
#include <vector>

#include "core/dimension.hpp"
#include "workload/auction_schema.hpp"

namespace dbsp {

/// Parameters of the centralized experiment (paper §4: one broker,
/// 200,000 subscriptions, 100,000 events at full scale; benches default to
/// a reduced scale via DBSP_SUBS/DBSP_EVENTS/DBSP_FULL).
struct CentralizedConfig {
  WorkloadConfig workload;
  std::size_t subscriptions = 20000;
  std::size_t events = 5000;
  /// Independent event sample used to train the selectivity statistics.
  std::size_t training_events = 20000;
  /// Pruning fractions at which metrics are sampled (x-axis of Fig. 1).
  std::vector<double> fractions = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                   0.6, 0.7, 0.8, 0.9, 1.0};
  bool bottom_up = true;
  /// Override of the §3.4 tie-break order (ablation A4); the paper's
  /// default order for the dimension when unset.
  std::optional<std::array<PruneDimension, 3>> tie_break_order;
  /// Match workers of the engine; 0 resolves from DBSP_SHARDS / hardware
  /// concurrency. Pruning always runs the paper's single global queue, so
  /// no metric depends on it.
  std::size_t shards = 1;
};

/// Metrics sampled at one pruning fraction.
struct CentralizedPoint {
  double fraction = 0.0;
  std::size_t prunings_performed = 0;
  /// Fig 1(a): average filtering time per event in seconds.
  double filter_time_per_event = 0.0;
  /// Fig 1(b): matches / (events * subscriptions) — the proportional
  /// number of matching events.
  double matching_fraction = 0.0;
  /// Fig 1(c): 1 - associations / associations(unpruned).
  double association_reduction = 0.0;

  // Extra introspection (ablations, EXPERIMENTS.md).
  std::size_t associations = 0;
  std::uint64_t counter_increments = 0;
  std::uint64_t tree_evaluations = 0;
  std::uint64_t matches = 0;
};

struct CentralizedResult {
  PruneDimension dimension{};
  std::size_t total_possible_prunings = 0;
  std::vector<CentralizedPoint> points;
};

/// Runs the full centralized sweep for one heuristic: builds the workload,
/// trains statistics, registers everything with a CountingMatcher and a
/// PruningEngine, then alternates "prune to the next fraction" and
/// "publish the event set, measure" — deterministic for a given config.
[[nodiscard]] CentralizedResult run_centralized(const CentralizedConfig& config,
                                                PruneDimension dimension);

}  // namespace dbsp
