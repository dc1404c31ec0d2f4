#pragma once

/// \file
/// ShardedPruningSet: churn-safe owner of the per-shard pruning engines of
/// one ShardedEngine. Routes admissions and releases to the shard that owns
/// the subscription, so callers can no longer leak pruning-queue state by
/// unsubscribing behind the engines' backs (the Broker::unsubscribe_local
/// footgun), and aggregates the drift-maintenance controls across shards.

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/sharded_engine.hpp"

namespace dbsp {

/// One PruningEngine per shard of a ShardedEngine, with
/// id-routed add/remove. Subscriptions admitted here must already be
/// registered with the engine (the pruning engines reindex the owning
/// shard's matcher after every applied pruning).
///
/// Not thread-safe; serialize externally together with the engine it wraps
/// (every applied pruning reindexes that engine, so the two always mutate
/// under one serialization domain — in the public API both are members of
/// PubSubCore declared DBSP_GUARDED_BY the facade mutex, making a
/// lock-free access path a clang -Wthread-safety build error). The
/// ShardedEngine, the estimator, and every admitted Subscription must
/// outlive the set.
class ShardedPruningSet {
 public:
  /// Builds one engine per shard and admits `subs` (each into the shard
  /// that owns it).
  ShardedPruningSet(ShardedEngine& engine, const SelectivityEstimator& estimator,
                    const PruneEngineConfig& config,
                    const std::vector<Subscription*>& subs = {});

  ShardedPruningSet(const ShardedPruningSet&) = delete;
  ShardedPruningSet& operator=(const ShardedPruningSet&) = delete;

  /// Admits one subscription into its owning shard's queue — incremental,
  /// no rebuild (see PruningEngine::register_subscription).
  void add(Subscription& sub);
  /// Releases a subscription from its owning shard. Returns false (and does
  /// nothing) when the id is not tracked, so unsubscribe paths can call
  /// this unconditionally for local/untracked ids.
  bool remove(SubscriptionId id);
  [[nodiscard]] bool tracks(SubscriptionId id) const;
  [[nodiscard]] std::size_t subscription_count() const;

  /// Per-subscription {capacity, performed} accounting, routed to the
  /// owning shard (see PruningEngine::accounting). nullopt when untracked.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>> accounting(
      SubscriptionId id) const;
  /// Crash-recovery accounting override, routed to the owning shard (see
  /// PruningEngine::restore_accounting).
  void restore_accounting(SubscriptionId id, std::size_t capacity,
                          std::size_t performed);

  /// Performs up to `k` prunings, always picking the shard whose pending
  /// best candidate rates best on the primary dimension — the closest
  /// approximation of the paper's single global queue that keeps all index
  /// maintenance shard-local. Returns how many were performed.
  std::size_t prune(std::size_t k);
  /// Prunes each shard to `fraction` of its own live capacity (idempotent:
  /// shards already at or past their target are left alone, so this is
  /// cheap to call after every churn step). Returns prunings performed.
  std::size_t prune_to_fraction(double fraction);

  /// Live capacity / performed prunings summed over shards.
  [[nodiscard]] std::size_t total_possible() const;
  [[nodiscard]] std::size_t performed() const;

  // --- Drift maintenance ---------------------------------------------------

  /// Arms every shard's drift trigger (see PruningEngine).
  void set_drift_threshold(std::size_t mutations);
  /// True when any shard accumulated enough table mutations to want a
  /// retrain + rescore.
  [[nodiscard]] bool drift_pending() const;
  /// Re-scores all queued candidates on every shard against the estimator's
  /// current values; call after retraining the backing EventStats.
  void rescore_all();

  /// Maintenance counters summed over shards.
  [[nodiscard]] PruningEngine::MaintenanceCounters maintenance() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] PruningEngine& shard(std::size_t i) { return *shards_.at(i); }
  [[nodiscard]] const PruningEngine& shard(std::size_t i) const {
    return *shards_.at(i);
  }

 private:
  ShardedEngine* engine_;
  std::vector<std::unique_ptr<PruningEngine>> shards_;
};

}  // namespace dbsp
