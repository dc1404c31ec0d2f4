#pragma once

/// \file
/// The concurrent matching engine: one predicate index shared by K match
/// contexts — the scaling layer between the matchers (filter/) and the
/// broker.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "filter/counting_matcher.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

/// Construction-time knobs of a ShardedEngine.
struct ShardedEngineOptions {
  /// Number of match workers (contexts) a batch fans out over. 0 = auto:
  /// the DBSP_SHARDS environment knob when set, otherwise the machine's
  /// hardware concurrency. Matches never depend on it.
  std::size_t shards = 0;
};

/// Resolves a requested worker count: a positive request is taken verbatim;
/// 0 reads env_int("DBSP_SHARDS") and falls back to hardware concurrency.
/// The result is always at least 1.
[[nodiscard]] std::size_t resolve_shard_count(std::size_t requested);

/// The matching engine: one CountingMatcher index holding every
/// subscription, plus K MatchContexts. A single event matches inline on
/// context 0 (the matcher's own); a batch is split by event across the K
/// contexts, one per worker, and each worker writes its events' rows
/// directly. Both match() and match_batch() return each event's matches
/// sorted by subscription id, so results are deterministic and independent
/// of the worker count (proved by sharded_engine_test). One index also
/// means one pruning queue: a PruningEngine bound to counting_shard(0)
/// runs the paper's global schedule.
///
/// Thread safety: add/remove and the match entry points must be externally
/// serialized — one writer OR one matching call at a time (the
/// match-vs-churn exclusion contract). Inside match_batch() the workers
/// (an internal pool created lazily on first use when K > 1) only read the
/// index and each writes its own context and its own rows of `out`, so no
/// two threads share mutable state. Distinct ShardedEngine instances are
/// fully independent.
///
/// Enforcement: the engine itself carries no lock — its serializer is its
/// owner. In the public API the owning PubSubCore declares its engine
/// member DBSP_GUARDED_BY the facade mutex, so under clang's thread-safety
/// analysis any facade path that touches the engine without holding that
/// lock is a compile error, and tests/concurrent_stress_test.cpp races
/// the contract under ThreadSanitizer (see docs/ARCHITECTURE.md
/// "Concurrency contracts & static analysis").
class ShardedEngine {
 public:
  explicit ShardedEngine(const Schema& schema, ShardedEngineOptions options = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Registers `sub` with the index. The subscription must outlive the
  /// engine and its address must be stable; after its tree changes,
  /// reindex it through counting_shard(0) (the PruningEngine does this for
  /// pruning).
  void add(Subscription& sub) { matcher_.add(sub); }

  /// Unregisters by id; throws std::out_of_range when unknown.
  void remove(SubscriptionId id) { matcher_.remove(id); }

  [[nodiscard]] bool contains(SubscriptionId id) const { return matcher_.contains(id); }
  [[nodiscard]] std::size_t subscription_count() const {
    return matcher_.subscription_count();
  }

  /// Predicate/subscription associations (the memory metric).
  [[nodiscard]] std::size_t association_count() const {
    return matcher_.association_count();
  }
  /// Associations contributed by one subscription.
  [[nodiscard]] std::size_t associations_of(SubscriptionId id) const {
    return matcher_.associations_of(id);
  }

  /// Matches one event on the calling thread (context 0) and appends its
  /// matches to `out`, sorted by id.
  void match(const Event& event, std::vector<SubscriptionId>& out);

  /// Batched dispatch: splits `events` into K contiguous runs, one per
  /// context (run 0 on the calling thread, the rest on the internal pool),
  /// each row sorted by id. `out` is resized to events.size(); row buffers
  /// are reused.
  void match_batch(std::span<const Event> events,
                   std::vector<std::vector<SubscriptionId>>& out);

  /// Convenience overload allocating the result rows.
  [[nodiscard]] std::vector<std::vector<SubscriptionId>> match_batch(
      std::span<const Event> events);

  /// Number of predicate indexes: always 1.
  [[nodiscard]] std::size_t shard_count() const { return 1; }
  /// Number of match contexts a batch fans out over.
  [[nodiscard]] std::size_t worker_count() const { return contexts_.size() + 1; }

  /// The index — the hook for binding a PruningEngine. Throws
  /// std::out_of_range for any shard but 0.
  [[nodiscard]] CountingMatcher& counting_shard(std::size_t shard);
  [[nodiscard]] const CountingMatcher& counting_shard(std::size_t shard) const;

  /// Introspection counters summed over the contexts.
  [[nodiscard]] CountingMatcher::Counters counters() const;
  void reset_counters();

 private:
  CountingMatcher matcher_;
  /// Contexts of workers 1..K-1; worker 0 uses the matcher's own.
  std::vector<MatchContext> contexts_;
  /// Lazily created fan-out pool (K - 1 workers).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace dbsp
