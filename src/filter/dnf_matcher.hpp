#pragma once

/// \file
/// The canonical (DNF) counting matcher baseline.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "event/event.hpp"
#include "event/schema.hpp"
#include "filter/attribute_index.hpp"
#include "filter/dnf.hpp"
#include "filter/predicate_registry.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

/// Canonical counting matcher (refs [2]/[10]): subscriptions are converted
/// to DNF and every conjunction gets a counter; a conjunction whose counter
/// reaches its size fires its subscription. Simpler per-event logic than
/// the non-canonical CountingMatcher (no tree evaluation at all) at the
/// cost of the DNF blowup — the trade-off quantified by
/// bench/ablation_canonical.
///
/// Unlike CountingMatcher this matcher does not support reindex-after-
/// pruning; it is the baseline algorithm, not the pruning substrate.
///
/// Not thread-safe: every member (including match(), which advances the
/// epoch) mutates state and requires external synchronization. Distinct
/// instances are independent.
class DnfMatcher {
 public:
  explicit DnfMatcher(const Schema& schema);

  /// Converts and indexes the subscription. Returns false (and indexes
  /// nothing) when the tree is not DNF-convertible or exceeds
  /// `max_conjunctions`. Throws std::invalid_argument for a registered id
  /// and std::out_of_range for a leaf on an attribute outside the schema,
  /// in both cases before anything changes.
  bool add(const Subscription& sub, std::size_t max_conjunctions = 4096);
  /// Unregisters by id, releasing all conjunction counters; throws
  /// std::out_of_range when the id is unknown.
  void remove(SubscriptionId id);
  /// True iff a subscription with this id is indexed.
  [[nodiscard]] bool contains(SubscriptionId id) const {
    return subs_.count(id.value()) != 0;
  }

  /// Appends ids of all subscriptions matching `event` (each at most once).
  /// Non-const: advances the matcher epoch and touches counters.
  void match(const Event& event, std::vector<SubscriptionId>& out);

  [[nodiscard]] std::size_t subscription_count() const { return subs_.size(); }
  /// Total conjunction counters — the canonical algorithm's table size.
  [[nodiscard]] std::size_t conjunction_count() const { return live_conjunctions_; }
  /// Distinct predicates in the indexes.
  [[nodiscard]] std::size_t predicate_count() const { return registry_.live_predicates(); }
  /// Σ over conjunctions of their predicate count (association analogue).
  [[nodiscard]] std::size_t association_count() const { return association_count_; }

 private:
  struct Conjunction {
    SubscriptionId sub;
    std::uint32_t size = 0;
    bool live = false;
    std::vector<PredicateId> preds;
  };

  PredicateId intern(const Predicate& pred);
  void release(PredicateId id);

  std::vector<AttributeIndex> attr_index_;
  /// One reference per conjunction slot that holds the predicate.
  PredicateRegistry registry_;
  /// By predicate id: the conjunctions holding it, once per slot.
  std::vector<std::vector<std::uint32_t>> pred_conjunctions_;

  std::vector<Conjunction> conjunctions_;
  std::vector<std::uint32_t> free_conjunctions_;
  std::vector<std::uint32_t> counter_;
  std::vector<std::uint64_t> counter_epoch_;
  std::unordered_map<SubscriptionId::value_type, std::vector<std::uint32_t>> subs_;
  std::unordered_map<SubscriptionId::value_type, std::uint64_t> sub_epoch_;

  std::uint64_t epoch_ = 0;
  std::size_t live_conjunctions_ = 0;
  std::size_t association_count_ = 0;
  std::vector<PredicateId> scratch_preds_;
};

}  // namespace dbsp
