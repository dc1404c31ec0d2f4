#pragma once

/// \file
/// The non-canonical counting matcher: per-attribute predicate indexes,
/// association counters, and the pmin evaluation trigger.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "event/event.hpp"
#include "event/schema.hpp"
#include "filter/attribute_index.hpp"
#include "filter/predicate_registry.hpp"
#include "subscription/subscription.hpp"

namespace dbsp {

/// Introspection counters a MatchContext accumulates across matches.
struct MatchCounters {
  std::uint64_t events = 0;
  std::uint64_t predicate_hits = 0;      ///< fulfilled predicates found by indexes
  std::uint64_t counter_increments = 0;  ///< association counter bumps
  std::uint64_t tree_evaluations = 0;    ///< Boolean trees evaluated
  std::uint64_t matches = 0;             ///< subscriptions matched
};

/// Everything one match writes: the epoch, the per-predicate epochs, one
/// counter record per slot, the scratch lists and the counters. The index
/// (CountingMatcher) is only read while matching, so K contexts let K
/// threads match against one index at once. A context's arrays grow
/// lazily to the index they last matched against.
class MatchContext {
 public:
  [[nodiscard]] const MatchCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 private:
  friend class CountingMatcher;
  /// A slot's association counter for one event: the fulfilled leaves it
  /// still needs before its tree is evaluated, seeded from the index's
  /// pmin on the first touch of the epoch (stale epochs read as unseeded).
  /// One 8-byte record per counter bump.
  struct SlotCounter {
    std::uint32_t epoch = 0;
    std::uint32_t remaining = 0;
  };

  /// 0 belongs to no event; when the counter wraps, every record is reset
  /// so that no stale epoch can read as current.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> pred_epoch_;  // by predicate id
  std::vector<SlotCounter> slot_counter_;  // by slot
  std::vector<PredicateId> preds_;
  std::vector<std::uint32_t> candidates_;
  MatchCounters counters_;
};

/// The counting-based filtering engine for Boolean subscriptions
/// (non-canonical algorithm of the paper's ref [2]).
///
/// Two-phase matching: (1) per-attribute indexes produce the set of
/// predicates fulfilled by the event — each distinct predicate is tested at
/// most once regardless of how many subscriptions use it; (2) counters over
/// predicate/subscription associations find subscriptions whose number of
/// fulfilled predicates reaches pmin, and only those have their Boolean
/// tree evaluated (the pmin evaluation trigger central to the throughput
/// heuristic of §3.3). Subscriptions with pmin == 0 (satisfiable through a
/// NOT by absence of matches) are evaluated on every event.
///
/// The hot path is flat data: add() and reindex() compile each tree into a
/// pre-order program of 8-byte ops that match() runs against the
/// per-predicate epochs, and each slot's counter and counter epoch share
/// one 8-byte record in the MatchContext.
///
/// The matcher does not own subscriptions; registered Subscription objects
/// must outlive it and their addresses must be stable. Trees may only be
/// mutated through the pruning engine, which calls reindex() afterwards;
/// until then match() keeps evaluating the previously compiled tree.
///
/// Thread safety: add/remove/reindex mutate the index and need exclusive
/// access. Matching reads the index only and writes a MatchContext, so
/// concurrent match() calls are safe while no mutation runs, as long as
/// each uses its own context — the property ShardedEngine exploits to fan
/// a batch out over K workers. The two-argument match() uses the matcher's
/// own context and is therefore single-caller.
class CountingMatcher {
 public:
  explicit CountingMatcher(const Schema& schema);

  /// Registers a subscription: interns its predicates, assigns leaf
  /// predicate ids, indexes it for matching. Throws std::out_of_range, and
  /// changes nothing, when a predicate's attribute is outside the schema.
  void add(Subscription& sub);
  /// Unregisters; releases all predicate references.
  void remove(Subscription& sub);
  /// Id-based overload (uniform across matchers); throws std::out_of_range
  /// when the id is unknown.
  void remove(SubscriptionId id);
  /// Re-synchronizes indexes and pmin after the subscription's tree changed
  /// (e.g. a pruning). Cost is proportional to the tree size. Throws like
  /// add(), keeping the previously compiled tree.
  void reindex(Subscription& sub);

  /// Appends ids of all subscriptions matching `event`, in no particular
  /// order, writing only `context`.
  void match(const Event& event, std::vector<SubscriptionId>& out,
             MatchContext& context) const;
  /// Same, on the matcher's own context.
  void match(const Event& event, std::vector<SubscriptionId>& out) {
    match(event, out, context_);
  }

  [[nodiscard]] bool contains(SubscriptionId id) const;
  [[nodiscard]] std::size_t subscription_count() const { return live_subs_; }

  /// Predicate/subscription association count (memory metric, Fig 1c/1f).
  [[nodiscard]] std::size_t association_count() const {
    return registry_.association_count();
  }
  /// Associations contributed by one subscription (= its distinct
  /// predicates); lets experiments restrict the metric to non-local subs.
  [[nodiscard]] std::size_t associations_of(SubscriptionId id) const;

  [[nodiscard]] std::size_t live_predicates() const { return registry_.live_predicates(); }
  [[nodiscard]] const PredicateRegistry& registry() const { return registry_; }

  /// Disables the pmin evaluation trigger: every registered subscription's
  /// tree is evaluated on every event (predicate indexes still run). Only
  /// meant for the ablation study quantifying the trigger's value.
  void set_pmin_trigger(bool enabled) { pmin_trigger_ = enabled; }
  [[nodiscard]] bool pmin_trigger() const { return pmin_trigger_; }

  using Counters = MatchCounters;
  /// The matcher's own context, which the two-argument match() writes.
  [[nodiscard]] MatchContext& context() { return context_; }
  /// Counters of the matcher's own context.
  [[nodiscard]] const Counters& counters() const { return context_.counters(); }
  void reset_counters() { context_.reset_counters(); }

 private:
  /// One op of a slot's compiled tree: the tree flattened in pre-order, so
  /// an inner node's children follow it back to back up to `arg`, one past
  /// its subtree. A leaf's `arg` is its predicate id.
  struct Instr {
    NodeKind kind = NodeKind::Leaf;
    std::uint32_t arg = 0;  ///< Leaf: predicate id; inner: one past the subtree
  };
  static_assert(sizeof(Instr) == 8);
  using Program = std::vector<Instr>;

  struct Slot {
    Subscription* sub = nullptr;
    /// The tree as of the last (re)index — what match() evaluates and what
    /// remove/reindex release (one predicate reference per leaf op).
    Program program;
  };

  [[nodiscard]] std::uint32_t slot_of(SubscriptionId id) const;
  /// Nodes in `node`'s tree. Throws std::out_of_range when a leaf's
  /// attribute is outside the schema, so add() and reindex() reject such a
  /// tree before they change anything.
  [[nodiscard]] std::size_t checked_size(const Node& node) const;
  /// Compiles `sub`'s tree, of `size` nodes, into slot `slot`'s program
  /// (exactly sized), taking one predicate reference per leaf.
  void load_program(const Subscription& sub, std::uint32_t slot, std::size_t size);
  void compile(const Node& node, SubscriptionId id, std::uint32_t slot, Program& program);
  void release_program(SubscriptionId id, std::uint32_t slot, const Program& program);
  [[nodiscard]] static bool run(const Instr* program, std::uint32_t pc,
                                const MatchContext& context);
  void set_pmin(std::uint32_t slot, std::uint32_t pmin);
  void grow_predicate_arrays();

  /// One association as seen from a predicate: the subscription's slot and
  /// how many of its leaves carry this predicate. Counters advance by
  /// `leaf_refs` so they count fulfilled *leaf occurrences* — pmin is a
  /// bound on fulfilled leaves, not on distinct predicates (a predicate
  /// duplicated across leaves must count once per leaf).
  struct PredSub {
    std::uint32_t slot = 0;
    std::uint32_t leaf_refs = 0;
  };

  const Schema* schema_;
  PredicateRegistry registry_;
  std::vector<AttributeIndex> attr_index_;            // by attribute id
  std::vector<std::vector<PredSub>> pred_slots_;      // by predicate id

  std::unordered_map<SubscriptionId::value_type, std::uint32_t> slot_by_id_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_pmin_;    // by slot
  std::vector<std::uint32_t> always_eval_;  // slots with pmin == 0

  std::size_t live_subs_ = 0;
  bool pmin_trigger_ = true;
  MatchContext context_;
};

}  // namespace dbsp
