#pragma once

/// \file
/// The non-canonical counting matcher: per-attribute predicate indexes,
/// association counters, and the pmin evaluation trigger.

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
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
  std::uint64_t predicate_hits = 0;      ///< fulfilled indexed predicates
  std::uint64_t counter_increments = 0;  ///< access-leaf counter bumps
  std::uint64_t leaf_tests = 0;          ///< leaves tested in place
  std::uint64_t tree_evaluations = 0;    ///< Boolean trees evaluated
  std::uint64_t matches = 0;             ///< subscriptions matched
  std::uint64_t composite_probes = 0;    ///< composite-key table lookups
  std::uint64_t composite_hits = 0;      ///< composite keys the event fulfils
};

/// Everything one match writes: the epoch, the per-predicate epochs, one
/// counter record per slot, the event's values and their hashes by
/// attribute, the scratch lists and the counters. The index
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
  /// still needs before its tree is evaluated, seeded from the slot's pmin
  /// on the first touch of the epoch (stale epochs read as unseeded).
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
  /// By attribute id: the event's value during a match, null otherwise.
  std::vector<const Value*> values_;
  /// By attribute id: the hash of the event's value, set during a match
  /// for the attributes of live composite-key signatures.
  std::vector<std::size_t> hashes_;
  std::vector<PredicateId> preds_;
  std::vector<std::uint32_t> keys_;  // composite keys the event fulfils
  std::vector<std::uint32_t> candidates_;
  MatchCounters counters_;
};

/// The counting-based filtering engine for Boolean subscriptions
/// (non-canonical algorithm of the paper's ref [2]).
///
/// Two-phase matching: (1) per-attribute indexes produce the indexed
/// predicates the event fulfils — each distinct predicate is tested at
/// most once regardless of how many subscriptions use it; (2) counters over
/// predicate/subscription associations find subscriptions whose number of
/// fulfilled access leaves reaches pmin, and only those have their Boolean
/// tree evaluated (the pmin evaluation trigger central to the throughput
/// heuristic of §3.3). Subscriptions with pmin == 0 (satisfiable through a
/// NOT by absence of matches) are evaluated on every event.
///
/// Access leaves: only some leaves of a tree are counted, and pmin is taken
/// over those alone. A leaf is its own access set; an Or counts the union
/// of its children's sets with the minimum of their pmins; Not, True and
/// False add 0 to pmin (False: unsatisfiable); an And counts some of its
/// children, summing their pmins. Any such set is exact — an event that
/// satisfies the tree fulfils at least pmin of its access leaves — so the
/// choice only moves cost. An And starts with every child and drops the
/// most often fulfilled one while that lowers Σ(estimated fulfilled access
/// leaves) + kEvalCost × P(trigger), keeping at least one child and never
/// dropping a child no more often fulfilled than the rarest one it keeps
/// (equal or untrained estimates drop nothing). A root that triggers always
/// (pmin 0) or never (unsatisfiable) counts no leaf at all once counting
/// would cost anything. The estimates come from set_leaf_estimate(); without
/// one every estimate is 0 and every leaf is counted, as in the paper.
///
/// Composite equality keys (the clustering of Fabret et al., SIGMOD 2001):
/// in an And that counts toward pmin — an access node with no Not above
/// it — the Eq access leaves whose operand is not NaN, the first one on
/// each attribute, form one group when they sit on two or more attributes.
/// A group counts as one toward pmin and has no links of its own: it is
/// interned as a key, its attribute signature (ascending) plus its member
/// predicates, hashed through the operands' Value::hash (Int and Double
/// agree), and the key's association list takes one entry per slot that
/// holds it. Per event each live signature is probed once — its
/// attributes' value hashes combined, one table walk, the members checked
/// against the event's values — unless a value is missing or NaN; a hit
/// fulfils every member, so it bumps its subscriptions like a fulfilled
/// access leaf. The access-set choice above ignores keys: groups are formed
/// from the access set it chose. A member leaf reads like a non-access leaf
/// in the branch program: tested in place when testable, else by the mark
/// of its predicate, which stays indexed. Reindexing and re-choosing re-key
/// the tree, so a pruning that drops a member changes its key.
///
/// Only what counting reads is indexed. A numeric comparison — Eq, Lt, Le,
/// Gt, Ge or Between whose operands are all exact, non-NaN numerics — sits
/// in its AttributeIndex only while it has an access link. Its non-access
/// leaves are tested in place when their tree is evaluated, against a flat
/// per-predicate test record and the event's value; a value that is not an
/// exact numeric (a string, a bool, an Int past 2^53) goes through
/// Predicate::matches_value, so every leaf reads what the tree would. Every
/// other predicate stays indexed while it is live, and its non-access
/// leaves read its mark. Predicate hits therefore follow the access sets;
/// candidates and deliveries do not.
///
/// The hot path is flat data. add() and reindex() compile each tree, in one
/// allocation per slot, into a pre-order program of 8-byte ops (each leaf
/// op flagged when it is an access leaf, and when it is tested in place)
/// and, once its access set is chosen, into a branch program: one op per
/// leaf, left to right, with its predicate id, in-place bit and the targets
/// for a leaf that holds and one that does not — a later op, accept or
/// reject. A Not swaps its child's targets, True and False resolve to one,
/// inner nodes emit no op; match() runs a candidate's ops in one loop,
/// short-circuiting as the tree would. Each association entry carries its
/// slot's pmin, so a counter's first bump in an event reads only the entry
/// and the MatchContext's 8-byte {epoch, remaining} record of the slot.
///
/// Index maintenance touches only the subscription's own tree, never a
/// list as long as a predicate's users. The PredicateRegistry only interns
/// (one reference per leaf); the matcher owns the association count of
/// Fig. 1(c)/(f), adding each compiled program's distinct predicate ids.
/// Each slot records, at the end of its program, where its entries sit in
/// the association lists, so unlinking swap-pops every entry in O(1) and
/// repairs the recorded position of the entry it moved.
///
/// The matcher does not own subscriptions and keeps only their ids: it
/// reads a tree in add() and reindex() alone. Trees may only be
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
  /// The estimated share of events that fulfil a predicate.
  using LeafEstimate = std::function<double(const Predicate&)>;

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

  /// Predicate/subscription association count (memory metric, Fig 1c/1f):
  /// Σ over subscriptions of their distinct predicates.
  [[nodiscard]] std::size_t association_count() const { return association_count_; }
  /// Associations contributed by one subscription (= its distinct
  /// predicates); lets experiments restrict the metric to non-local subs.
  [[nodiscard]] std::size_t associations_of(SubscriptionId id) const;

  [[nodiscard]] std::size_t live_predicates() const { return registry_.live_predicates(); }
  [[nodiscard]] const PredicateRegistry& registry() const { return registry_; }

  /// Checks the index against the compiled programs, from scratch: the
  /// association count; that each branch program holds every leaf of its
  /// tree once, in order, with its predicate and in-place bit, and only
  /// forward targets; that every association list holds each live
  /// slot's access links exactly once, with its access-leaf count and
  /// pmin, at the position the slot records; that exactly the non-access
  /// and key-member leaves on predicates testable in place are tested in
  /// place; that a live predicate is in its AttributeIndex iff it is not
  /// testable in place or has an access link; that the groups are those
  /// the access set implies and the slot's pmin counts each as one; and
  /// that each group's key holds its signature and member predicates,
  /// hashes their operands, is found in the key table, is linked like a
  /// predicate and counts the groups that carry it. Returns the first
  /// inconsistency, or an empty string. O(index size); meant for tests.
  [[nodiscard]] std::string audit() const;

  /// Disables the pmin evaluation trigger: every registered subscription's
  /// tree is evaluated on every event (predicate indexes still run). Only
  /// meant for the ablation study quantifying the trigger's value.
  void set_pmin_trigger(bool enabled) { pmin_trigger_ = enabled; }

  /// Binds the oracle that chooses access leaves and re-chooses every
  /// access set; an empty function counts every leaf. Each predicate's
  /// estimate is read once, when it is interned (or here), and cached; NaN,
  /// negative and above-1 estimates read as 1. The oracle must stay valid
  /// until it is replaced.
  void set_leaf_estimate(LeafEstimate estimate);
  /// Re-reads every live predicate's estimate from the bound oracle and
  /// re-chooses every access set in one pass over the leaves — after the
  /// statistics behind the oracle changed.
  void rechoose_access_sets();

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
    /// Leaf: counted (an access leaf). Inner: kept in its parent's access
    /// set. A dropped subtree is cleared throughout.
    bool access = false;
    /// Leaf: tested in place — not an access leaf or a key member, and its
    /// predicate is testable in place (see LeafTest).
    bool direct = false;
    /// Leaf: a member of its parent And's composite key. And: holds a
    /// group, whose key op follows the branch ops.
    bool key = false;
    std::uint32_t arg = 0;  ///< Leaf: predicate id; inner: one past the subtree
  };
  static_assert(sizeof(Instr) == 8);
  /// A True op whose arg is a branch entry, a key id or a link position.
  [[nodiscard]] static Instr marker(std::uint32_t arg) {
    return {NodeKind::True, false, false, false, arg};
  }
  using Program = std::vector<Instr>;

  /// One op of a slot's branch program: a leaf of the tree, in pre-order,
  /// and where evaluation goes when its predicate holds and when it does
  /// not. It fills two Instrs of the program, copied with memcpy.
  struct Branch {
    std::uint32_t pred = 0;
    std::uint32_t on_true = 0;
    std::uint32_t on_false = 0;
    bool direct = false;  ///< tested in place, as its leaf op
  };
  static_assert(sizeof(Branch) == 2 * sizeof(Instr));
  [[nodiscard]] static Branch branch_op(const Instr* ops, std::uint32_t i);
  static constexpr std::uint32_t kAccept = 0xFFFFFFFF;
  static constexpr std::uint32_t kReject = 0xFFFFFFFE;

  struct Slot {
    SubscriptionId id;
    /// One exactly sized allocation, empty while the slot is free: the tree
    /// as of the last (re)index, whose leaf ops hold the slot's predicate
    /// references; a True op whose arg is the branch program's entry (an
    /// op, kAccept or kReject); the branch ops; one True op per group, in
    /// pre-order, whose arg is its key id (a key reference); and, while
    /// linked, one True op per link recording where it sits: link k, the
    /// k-th distinct access predicate outside a group in program order and
    /// then the distinct keys in key-op order, sits k + 1 ops from the end
    /// and is pred_slots_[pid][op.arg] (key_slots_[key][op.arg]).
    Program program;
  };

  [[nodiscard]] std::uint32_t slot_of(SubscriptionId id) const;
  /// Nodes in `node`'s tree. Throws std::out_of_range when a leaf's
  /// attribute is outside the schema, so add() and reindex() reject such a
  /// tree before they change anything.
  [[nodiscard]] std::size_t checked_size(const Node& node) const;
  /// Compiles `sub`'s tree, of `size` nodes, taking one predicate
  /// reference per leaf and one key reference per group, chooses its
  /// access set and gives slot `slot` its program with room for its link
  /// ops in one exactly sized allocation. Adds its associations to
  /// association_count_ and returns its pmin.
  [[nodiscard]] std::uint32_t load_program(const Subscription& sub, std::uint32_t slot,
                                           std::size_t size);
  void compile(const Node& node, Program& program);
  /// Writes the branch program after `program`'s tree, up to its end.
  void compile_branches(Program& program);
  /// Writes the branch ops of the subtree at `pc`, whose value continues
  /// at `on_true` or `on_false`, numbering its leaves down to `next_op`;
  /// returns the target that starts it.
  std::uint32_t emit(const Instr* program, Instr* ops, std::uint32_t pc, std::uint32_t on_true,
                     std::uint32_t on_false, std::uint32_t& next_op);
  void release_program(const Program& program);
  /// Ops of the compiled tree of `program`, without its branch and link ops.
  [[nodiscard]] static std::uint32_t tree_size(const Program& program);
  [[nodiscard]] static std::span<const Instr> tree(const Program& program);
  /// Where the key ops of `program` sit: from one past its branch ops up
  /// to where its link ops start.
  struct KeyOps {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  [[nodiscard]] static KeyOps key_ops(const Program& program);
  /// Distinct predicate ids of the tree: its associations.
  [[nodiscard]] std::uint32_t distinct_predicates(const Program& program);
  /// Access leaves outside a group of `program`'s tree on predicate `pid`.
  [[nodiscard]] static std::uint32_t access_leaves(const Program& program, std::uint32_t pid);
  /// Groups of `program` keyed `key`.
  [[nodiscard]] static std::uint32_t key_groups(const Program& program, std::uint32_t key);

  /// A predicate's in-place test: Eq, Lt, Le, Gt and Ge compare with
  /// `low`, Between is low <= value <= high. Only a numeric comparison
  /// whose operands are all exact, non-NaN numerics is `testable`; every
  /// other predicate is indexed while it is live.
  struct LeafTest {
    double low = 0.0;
    double high = 0.0;
    std::uint32_t attr = 0;
    Op op = Op::Eq;
    bool testable = false;
    bool indexed = false;  ///< in its AttributeIndex
    bool keyable = false;  ///< an Eq whose operand is not NaN: a key member
  };
  static_assert(sizeof(LeafTest) <= 24);
  [[nodiscard]] static LeafTest leaf_test_of(const Predicate& pred);
  /// Whether predicate `pid` holds for the event `context` is matching;
  /// counts a leaf test.
  [[nodiscard]] bool test_in_place(std::uint32_t pid, MatchContext& context) const;
  /// Whether predicate `pid` holds for `value`, without counting.
  [[nodiscard]] bool holds(std::uint32_t pid, const Value& value) const;
  void index_predicate(std::uint32_t pid);
  void unindex_predicate(std::uint32_t pid);
  /// Takes out of the index each predicate unlink() emptied whose list is
  /// still empty; reindex() calls it after link(), so a predicate the new
  /// tree links again never leaves the index.
  void flush_unindexed();
  void set_pmin(std::uint32_t slot, std::uint32_t pmin);
  void grow_predicate_arrays();

  /// What counting a subtree's access set costs per event: pmin over its
  /// access leaves, the expected number of them fulfilled (counter bumps)
  /// and the probability that they reach pmin (the trigger fires).
  struct AccessCost {
    std::uint32_t pmin = 0;
    double bumps = 0.0;
    double trigger = 0.0;
  };
  /// One tree evaluation costs about as much as this many counter bumps
  /// (≈ 21 ns against ≈ 5 ns, rdtsc on inproc_prune's pruned auction table
  /// on a 2.1 GHz Xeon: nearer 4, but a new value moves the access sets).
  static constexpr double kEvalCost = 8.0;

  [[nodiscard]] double estimate(const Predicate& pred) const;
  /// Chooses the access set of `program` (see the class comment), groups
  /// its Eq access leaves and returns its pmin, each group counting one.
  /// Allocates nothing once the scratch has grown.
  [[nodiscard]] std::uint32_t choose_access(Program& program);
  void choose(Instr* program, std::uint32_t pc) const;
  /// Sets the key bits of the groups in the subtree at `pc`, whose key bits
  /// are clear; `taken` is scratch (the attributes of the groups being
  /// formed), returned as it came.
  void mark_keys(Instr* program, std::uint32_t pc, std::vector<std::uint32_t>& taken) const;
  void drop_costly_children(Instr* program, std::uint32_t pc) const;
  [[nodiscard]] AccessCost cost(const Instr* program, std::uint32_t pc) const;
  /// Adds or takes out the slot's entries in the association lists: one
  /// per distinct access predicate, carrying its access-leaf count and the
  /// slot's pmin, and the program's link ops, which link() appends to a
  /// program that ends at its branch ops. Both walk only the slot's own program:
  /// unlink() swap-pops each entry at its recorded position and repairs
  /// the recorded position of the entry it moved. link() indexes a
  /// testable predicate whose list it fills; unlink() queues one whose
  /// list it empties for flush_unindexed().
  void link(std::uint32_t slot);
  void unlink(std::uint32_t slot);

  /// A composite key: one attribute signature and its member predicates,
  /// one per attribute in ascending attribute order. Keys are interned:
  /// groups with equal members share one id, which lives while a group
  /// holds it.
  struct Key {
    std::size_t hash = 0;      ///< the signature id and the operands' hashes
    std::uint32_t sig = 0;
    std::uint32_t refs = 0;    ///< groups holding it, over all slots; 0 = free
    std::uint32_t record = 0;  ///< its members in signatures_[sig].members
  };
  /// The attributes of live keys, ascending, and the members of its keys
  /// in records of attrs.size() predicate ids.
  struct Signature {
    std::vector<std::uint32_t> attrs;
    std::vector<std::uint32_t> members;
    std::vector<std::uint32_t> free_records;
    std::uint32_t keys = 0;  ///< live keys; 0 = free
  };
  static constexpr std::uint32_t kNoKey = 0xFFFFFFFF;
  /// Interns the key of the group of the And at `pc` and returns its id.
  std::uint32_t intern_key(const Instr* program, std::uint32_t pc);
  /// Interns the key of every group of `program`'s tree, in pre-order,
  /// into `keys`.
  void intern_keys(const Program& program, std::vector<std::uint32_t>& keys);
  void release_key(std::uint32_t key);
  /// Releases the key references of `program`'s key ops.
  void release_keys(const Program& program);
  [[nodiscard]] const std::uint32_t* members_of(const Key& key) const;
  /// The hash of a key of signature `sig` with these members.
  [[nodiscard]] std::size_t key_hash(std::uint32_t sig, const std::uint32_t* members) const;
  /// The key of signature `sig` and hash `hash` whose members satisfy
  /// `same`, or kNoKey.
  template <typename Same>
  [[nodiscard]] std::uint32_t find_key(std::size_t hash, std::uint32_t sig, Same&& same) const;
  void insert_key(std::uint32_t key);
  void erase_key(std::uint32_t key);
  /// Appends to context.keys_ the keys the event fulfils.
  void probe_keys(MatchContext& context) const;

  /// One association as seen from a predicate: the subscription's slot,
  /// how many of its access leaves carry this predicate and its pmin.
  /// Counters advance by `leaf_refs` so they count fulfilled *leaf
  /// occurrences* — pmin is a bound on fulfilled leaves, not on distinct
  /// predicates (a predicate duplicated across leaves must count once per
  /// leaf). A count of kWide or more is kept as kWide: a leaf count is
  /// counted again from the program, a pmin read from slot_pmin_.
  struct PredSub {
    static constexpr std::uint16_t kWide = 0xFFFF;
    static std::uint16_t narrow(std::uint32_t n) {
      return static_cast<std::uint16_t>(n < kWide ? n : kWide);
    }
    std::uint32_t slot = 0;
    std::uint16_t leaf_refs = 0;
    std::uint16_t pmin = 0;
  };
  static_assert(sizeof(PredSub) == 8);

  const Schema* schema_;
  PredicateRegistry registry_;
  std::vector<AttributeIndex> attr_index_;            // by attribute id
  std::vector<std::vector<PredSub>> pred_slots_;      // by predicate id: access links
  /// Parallel to pred_slots_: each entry's link index k in its slot.
  std::vector<std::vector<std::uint32_t>> pred_links_;
  std::vector<double> leaf_estimate_;                 // by predicate id, in [0, 1]
  std::vector<LeafTest> leaf_test_;                   // by predicate id
  /// Testable predicates whose association list unlink() emptied.
  std::vector<std::uint32_t> unindex_;
  /// By predicate id: scratch counts and marks of one program walk, 0
  /// between walks.
  std::vector<std::uint32_t> link_refs_;

  std::vector<Key> keys_;                             // by key id
  std::vector<std::uint32_t> free_keys_;
  std::vector<std::vector<PredSub>> key_slots_;       // by key id: links
  std::vector<std::vector<std::uint32_t>> key_links_; // parallel to key_slots_
  /// By key id: scratch counts and marks, 0 between walks.
  std::vector<std::uint32_t> key_refs_;
  /// Open addressing with linear probing: key ids by hash, kNoKey empty.
  std::vector<std::uint32_t> key_table_;
  std::size_t live_keys_ = 0;
  std::vector<Signature> signatures_;
  std::vector<std::uint32_t> free_signatures_;
  std::map<std::vector<std::uint32_t>, std::uint32_t> signature_ids_;
  std::vector<std::uint32_t> probe_signatures_;  // those with live keys
  std::vector<std::uint32_t> key_attr_refs_;     // by attribute: probed signatures on it
  /// Scratch of choose_access() (the attributes of groups being formed),
  /// intern_key() (members and attributes) and the group keys of a tree.
  std::vector<std::uint32_t> taken_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> members_;
  std::vector<std::uint32_t> key_attrs_;
  std::vector<std::uint32_t> key_pids_;
  std::vector<std::uint32_t> group_keys_;
  std::vector<std::uint32_t> retired_keys_;
  /// Scratch of load_program() (a tree's ops) and emit() (children).
  Program compiled_;
  std::vector<std::uint32_t> children_;
  LeafEstimate leaf_estimate_fn_;

  std::unordered_map<SubscriptionId::value_type, std::uint32_t> slot_by_id_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_pmin_;    // by slot
  std::vector<std::uint32_t> always_eval_;  // slots with pmin == 0

  std::size_t live_subs_ = 0;
  std::size_t association_count_ = 0;
  bool pmin_trigger_ = true;
  MatchContext context_;
};

}  // namespace dbsp
