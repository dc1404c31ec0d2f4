#pragma once

/// \file
/// ShardedPruningSet: the PruningEngine bound to a ShardedEngine's index.

#include <vector>

#include "core/engine.hpp"
#include "core/sharded_engine.hpp"

namespace dbsp {

/// The paper's single global pruning queue over a ShardedEngine's one
/// index: a PruningEngine whose every pruning call reindexes the engine's
/// matcher once per subscription it pruned, before it returns.
/// Subscriptions admitted here must already be registered with the engine.
/// While the set lives, the index chooses its access leaves with the
/// estimator's leaf selectivity, so pruning and matching share one cost
/// model; the destructor unbinds it (every leaf counted again).
///
/// Not thread-safe; serialize externally together with the engine it binds
/// (every pruning call reindexes that engine, so the two always mutate
/// under one serialization domain — in the public API both are members of
/// PubSubCore declared DBSP_GUARDED_BY the facade mutex, making a
/// lock-free access path a clang -Wthread-safety build error). The
/// ShardedEngine, the estimator, and every admitted Subscription must
/// outlive the set.
class ShardedPruningSet : public PruningEngine {
 public:
  /// Binds the engine's index and admits `subs` in order.
  ShardedPruningSet(ShardedEngine& engine, const SelectivityEstimator& estimator,
                    const PruneEngineConfig& config,
                    const std::vector<Subscription*>& subs = {});
  ~ShardedPruningSet();

  ShardedPruningSet(const ShardedPruningSet&) = delete;
  ShardedPruningSet& operator=(const ShardedPruningSet&) = delete;

  /// Admits one subscription — incremental, no rebuild (see
  /// PruningEngine::register_subscription).
  void add(Subscription& sub) { register_subscription(sub); }

 private:
  CountingMatcher& index_;
};

}  // namespace dbsp
