#include "core/pruning_set.hpp"

namespace dbsp {

ShardedPruningSet::ShardedPruningSet(ShardedEngine& engine,
                                     const SelectivityEstimator& estimator,
                                     const PruneEngineConfig& config,
                                     const std::vector<Subscription*>& subs)
    : PruningEngine(estimator, config, &engine.counting_shard(0)) {
  for (Subscription* sub : subs) register_subscription(*sub);
}

}  // namespace dbsp
