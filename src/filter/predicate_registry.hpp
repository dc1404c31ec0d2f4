#pragma once

/// \file
/// Predicate interning and (predicate, subscription) association tracking
/// for the counting matcher.

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "subscription/predicate.hpp"

namespace dbsp {

/// Interns predicates and tracks predicate/subscription associations.
///
/// Structurally equal predicates across all subscriptions share one
/// PredicateId, so each distinct condition is evaluated at most once per
/// event. A predicate with a NaN operand equals no predicate, itself
/// included, so every such leaf gets its own PredicateId and is never
/// interned. Each association (predicate, subscription) carries a leaf
/// reference count because one subscription may use the same predicate in
/// several leaves; the association disappears when the last leaf is pruned.
/// The total number of associations is the memory metric of the paper's
/// Figures 1(c)/1(f).
///
/// Not thread-safe; owned and serialized by its matcher.
class PredicateRegistry {
 public:
  struct Association {
    SubscriptionId subscription;
    std::uint32_t leaf_refs = 0;
  };

  struct AddResult {
    PredicateId id;
    bool new_association = false;  ///< first leaf of `sub` referencing this predicate
    bool new_predicate = false;    ///< predicate was not interned before (index it)
  };
  struct ReleaseResult {
    bool association_removed = false;  ///< `sub` no longer references the predicate
    /// Set when the last reference overall was released: the predicate is
    /// handed back so the caller can remove it from attribute indexes (the
    /// registry storage is already recycled at that point).
    std::unique_ptr<Predicate> removed_predicate;
  };

  /// Interns `pred` and records one leaf reference from `sub`.
  AddResult add_reference(const Predicate& pred, SubscriptionId sub);

  /// Releases one leaf reference of `pred_id` from `sub`.
  ReleaseResult release_reference(PredicateId pred_id, SubscriptionId sub);

  /// The interned predicate. The reference stays valid until the
  /// predicate's last reference is released (heap-allocated storage), so
  /// indexes may hold it across registry growth.
  [[nodiscard]] const Predicate& predicate(PredicateId id) const;
  [[nodiscard]] const std::vector<Association>& associations(PredicateId id) const;
  /// Whether `id` names an interned predicate (not a recycled or unissued id).
  [[nodiscard]] bool live(PredicateId id) const {
    return id.value() < entries_.size() && entries_[id.value()].pred != nullptr;
  }

  /// Number of live distinct predicates.
  [[nodiscard]] std::size_t live_predicates() const { return live_predicates_; }
  /// Total number of (predicate, subscription) associations — the pred/sub
  /// association count of Fig. 1(c)/(f).
  [[nodiscard]] std::size_t association_count() const { return association_count_; }
  /// Upper bound over all ids ever issued (dense array sizing).
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  [[nodiscard]] std::optional<PredicateId> find(const Predicate& pred) const;

 private:
  struct Entry {
    std::unique_ptr<Predicate> pred;  // null once recycled; heap for address stability
    std::vector<Association> subs;
    std::uint64_t total_refs = 0;
  };

  std::vector<Entry> entries_;
  std::vector<PredicateId> free_ids_;
  std::unordered_map<Predicate, PredicateId> intern_;
  std::size_t live_predicates_ = 0;
  std::size_t association_count_ = 0;
};

}  // namespace dbsp
