#pragma once

/// \file
/// Per-attribute predicate index: given an event's value, yields the
/// fulfilled predicate ids (step one of counting-based matching).

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "event/value.hpp"
#include "subscription/predicate.hpp"

namespace dbsp {

/// Operator-segregated index of the predicates on one attribute. Given an
/// event's value for the attribute, collect() appends every fulfilled
/// predicate id exactly once.
///
/// Structure (per the two-step predicate-indexing scheme of counting
/// matchers), every ordered part a sorted contiguous array so a probe is a
/// binary search plus a linear scan:
///  * Eq and In members: hash map value -> predicate ids (O(1) probe);
///  * Lt/Le: (threshold, entry) pairs sorted by threshold, fulfilled iff
///    threshold > v (or >= v for Le) — the suffix from the first key >= v;
///  * Gt/Ge: sorted the same way, fulfilled iff threshold < v (<=) — the
///    prefix up to the last key <= v;
///  * Between: sorted by low bound; candidates are the prefix with
///    low <= v, each verified against its high bound (linear in that
///    prefix);
///  * Ne, string operators, ordered operators with non-numeric operands
///    and every predicate with a NaN operand: a scan list of (id,
///    predicate) pairs evaluated per event (rare in the workloads). NaN
///    never becomes a key, so the sorted arrays' binary searches always see
///    a total order and remove() always finds what insert() stored.
/// Equal keys keep insertion order, so collect() yields ids in the same
/// order for the same sequence of inserts and removes.
///
/// Not thread-safe for mutation; concurrent collect() calls are safe while
/// no thread is inserting or removing.
class AttributeIndex {
 public:
  /// Indexes `pred` under `id`; each (id, pred) pair at most once.
  void insert(PredicateId id, const Predicate& pred);
  /// Removes a previously inserted (id, pred) pair.
  void remove(PredicateId id, const Predicate& pred);
  /// Whether (id, pred) is inserted. Linear in the entries sharing its key;
  /// meant for audits.
  [[nodiscard]] bool contains(PredicateId id, const Predicate& pred) const;

  /// Appends ids of all predicates fulfilled by `value`.
  void collect(const Value& value, std::vector<PredicateId>& out) const;

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct OrderedEntry {
    PredicateId id;
    bool inclusive = false;  // Le / Ge
  };
  struct IntervalEntry {
    PredicateId id;
    double high = 0.0;
  };
  template <typename Entry>
  using Sorted = std::vector<std::pair<double, Entry>>;

  void insert_eq_key(const Value& key, PredicateId id);
  void remove_eq_key(const Value& key, PredicateId id);

  std::unordered_map<Value, std::vector<PredicateId>> eq_;
  Sorted<OrderedEntry> less_;      // Lt/Le keyed by threshold
  Sorted<OrderedEntry> greater_;   // Gt/Ge keyed by threshold
  Sorted<IntervalEntry> between_;  // keyed by low bound
  // Owning copies, so callers need not guarantee operand lifetime.
  std::vector<std::pair<PredicateId, Predicate>> scan_;
  std::size_t size_ = 0;
};

}  // namespace dbsp
