#include "core/pruning_set.hpp"

namespace dbsp {

ShardedPruningSet::ShardedPruningSet(ShardedEngine& engine,
                                     const SelectivityEstimator& estimator,
                                     const PruneEngineConfig& config,
                                     const std::vector<Subscription*>& subs)
    : PruningEngine(estimator, config, &engine.counting_shard(0)),
      index_(engine.counting_shard(0)) {
  index_.set_leaf_estimate([&estimator](const Predicate& p) { return estimator.leaf(p); });
  for (Subscription* sub : subs) register_subscription(*sub);
}

ShardedPruningSet::~ShardedPruningSet() { index_.set_leaf_estimate({}); }

}  // namespace dbsp
