#pragma once

/// \file
/// Predicate interning with per-predicate reference counts for the counting
/// matchers (CountingMatcher and the canonical DnfMatcher).

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "subscription/predicate.hpp"

namespace dbsp {

/// Interns predicates for a counting matcher.
///
/// Structurally equal predicates across all subscriptions share one
/// PredicateId, so each distinct condition is evaluated at most once per
/// event. A predicate with a NaN operand equals no predicate, itself
/// included, so every such leaf gets its own PredicateId and is never
/// interned. Each id carries one reference per leaf (DnfMatcher: per
/// conjunction slot) that holds it, whatever subscription the leaf belongs
/// to; the id is recycled when the last reference is released. Which subscriptions use a predicate, and the
/// association count of the paper's Figures 1(c)/1(f), are the matcher's
/// business (CountingMatcher keeps them per compiled program).
///
/// Not thread-safe; owned and serialized by its matcher.
class PredicateRegistry {
 public:
  struct AddResult {
    PredicateId id;
    bool new_predicate = false;  ///< predicate was not interned before (index it)
  };

  /// Interns `pred` and records one leaf reference to it.
  AddResult add_reference(const Predicate& pred);

  /// Releases one leaf reference of `pred_id`. When it was the last one,
  /// the predicate is handed back so the caller can remove it from
  /// attribute indexes (the registry storage is already recycled then);
  /// otherwise the result is null. Throws std::logic_error for a recycled
  /// id and std::out_of_range for one never issued.
  std::unique_ptr<Predicate> release_reference(PredicateId pred_id);

  /// The interned predicate. The reference stays valid until the
  /// predicate's last reference is released (heap-allocated storage), so
  /// indexes may hold it across registry growth.
  [[nodiscard]] const Predicate& predicate(PredicateId id) const;
  /// Leaf references held on `id` (0 for recycled or unissued ids).
  [[nodiscard]] std::uint64_t references(PredicateId id) const {
    return live(id) ? entries_[id.value()].refs : 0;
  }
  /// Whether `id` names an interned predicate (not a recycled or unissued id).
  [[nodiscard]] bool live(PredicateId id) const {
    return id.value() < entries_.size() && entries_[id.value()].pred != nullptr;
  }

  /// Number of live distinct predicates.
  [[nodiscard]] std::size_t live_predicates() const { return live_predicates_; }
  /// Upper bound over all ids ever issued (dense array sizing).
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

  [[nodiscard]] std::optional<PredicateId> find(const Predicate& pred) const;

 private:
  struct Entry {
    std::unique_ptr<Predicate> pred;  // null once recycled; heap for address stability
    std::uint64_t refs = 0;
  };

  /// Hashes and compares the predicates keys point to.
  struct Hash {
    std::size_t operator()(const Predicate* p) const { return p->hash(); }
  };
  struct Equal {
    bool operator()(const Predicate* a, const Predicate* b) const { return a->equals(*b); }
  };

  std::vector<Entry> entries_;
  std::vector<PredicateId> free_ids_;
  /// Keyed by the entries' own predicates, so each is stored once.
  std::unordered_map<const Predicate*, PredicateId, Hash, Equal> intern_;
  std::size_t live_predicates_ = 0;
};

}  // namespace dbsp
