#pragma once

/// \file
/// Hierarchical subscription aggregation: clusters similar subscriptions
/// into subgroups keyed by their top-scored pruning dimensions and
/// maintains one bounded SummarySet per subgroup under churn. A broker in
/// aggregated routing advertises the subgroup summaries instead of the
/// member trees, so advertisement bytes scale with the number of
/// subgroups, not subscriptions. Summaries over-approximate their members
/// (no false negatives); match() evaluates only the member trees of
/// admitting subgroups and is the exact reference for that contract.
/// Dimension choice reuses the paper's selectivity scores
/// (EventStats) with a drift-style rescore trigger mirroring the pruning
/// maintenance machinery.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "agg/summary.hpp"
#include "common/ids.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "selectivity/stats.hpp"
#include "subscription/subscription.hpp"

namespace dbsp::agg {

/// Construction-time knobs of a SubscriptionAggregator.
struct AggregatorOptions {
  /// Number of aggregation dimensions per subgroup key.
  std::size_t dimensions = 3;
  /// Subgroup cap; overflow coarsens the signature quantization and
  /// re-clusters so similar subscriptions merge first.
  std::size_t max_subgroups = 512;
  /// Widening caps of every summary.
  SummaryLimits limits;
  /// Mutations (adds + removes) after which rescore_pending() trips; 0
  /// disables the trigger.
  std::size_t rescore_threshold = 0;
  /// Re-tighten pace R: a subgroup's summary is re-tightened from its
  /// surviving members once its removals since the last re-tighten reach
  /// max(R, members / R), so each removal costs at most about R member
  /// summaries amortized (subgroups under R*R members re-tighten every R
  /// removals). 0 re-tightens on every removal.
  std::size_t subgroup_rebuild_removals = 8;
};

/// Introspection counters. The probe-side fields advance on match();
/// maintenance fields advance under the owner's churn serialization.
struct AggregationCounters {
  std::uint64_t events_probed = 0;
  std::uint64_t subgroups_admitted = 0;
  std::uint64_t subgroups_skipped = 0;
  std::uint64_t candidates_evaluated = 0;
  std::uint64_t matches = 0;
  /// Nothing writes it (always 0); kept because the end-to-end benchmark
  /// reads it.
  std::uint64_t probe_declines = 0;
  std::uint64_t summary_widenings = 0;
  std::uint64_t subgroup_rebuilds = 0;
  std::uint64_t full_rebuilds = 0;
};

/// The subgroup index. Subscriptions are clustered by the coarse
/// signature of their per-dimension summaries; each subgroup carries the
/// join of its members' summaries, widened incrementally on add and
/// re-tightened on removal bursts and rebuilds.
///
/// Thread safety: mirrors ShardedEngine — add/remove/refresh/train/rebuild
/// mutate aggregator state and must be externally serialized with each
/// other and with match(); match() itself is const over the subgroup
/// state and may run concurrently with other match() calls (its counters
/// are relaxed atomics). Registered subscriptions must outlive the
/// aggregator (it stores raw pointers, like the matcher layer).
class SubscriptionAggregator {
 public:
  explicit SubscriptionAggregator(const Schema& schema, AggregatorOptions options = {});

  SubscriptionAggregator(const SubscriptionAggregator&) = delete;
  SubscriptionAggregator& operator=(const SubscriptionAggregator&) = delete;

  // --- Churn (externally serialized) --------------------------------------

  /// Registers a subscription: summarizes it over the current dimensions
  /// and joins it into its signature's subgroup. Throws
  /// std::invalid_argument on duplicate ids.
  void add(Subscription& sub);

  /// Unregisters by id in O(1) (swap-pop out of its subgroup); throws
  /// std::out_of_range when unknown. A removal leaves the subgroup summary
  /// wide (sound); the subgroup is re-tightened once its removals reach
  /// max(R, members / R) for R = subgroup_rebuild_removals, and at once
  /// when it empties.
  void remove(SubscriptionId id);

  /// Re-joins a subscription whose tree changed in place (pruning made it
  /// more general); the subgroup summary widens accordingly.
  void refresh(Subscription& sub);

  [[nodiscard]] bool contains(SubscriptionId id) const;
  [[nodiscard]] std::size_t subscription_count() const { return member_subgroup_.size(); }

  // --- Dimension maintenance ----------------------------------------------

  /// Re-scores aggregation dimensions against trained event statistics
  /// (leaf weight 1 - selectivity; untrained fallback: constraint
  /// frequency) and fully rebuilds the subgroups when the choice changed.
  /// Clears the rescore trigger. `stats` must outlive the aggregator.
  void train(const EventStats& stats);

  /// Mutations since the last rescore crossed the configured threshold —
  /// the aggregation analogue of the pruning drift trigger.
  [[nodiscard]] bool rescore_pending() const {
    return options_.rescore_threshold > 0 && mutations_ >= options_.rescore_threshold;
  }
  void set_rescore_threshold(std::size_t mutations) {
    options_.rescore_threshold = mutations;
  }

  /// Fully re-clusters and re-tightens every subgroup from the live
  /// members (ascending-id order, so the result is independent of the
  /// churn history that led here).
  void rebuild();

  [[nodiscard]] const std::vector<AttributeId>& dimensions() const { return dims_; }

  /// Current signature-coarsening shift (0 = finest). Grows when the
  /// subgroup cap overflows; rebuild()/train() re-derive the smallest
  /// shift that fits the live population.
  [[nodiscard]] unsigned signature_shift() const { return shift_; }

  /// Bumped by every full rebuild (train/rebuild/auto-rescore); overlay
  /// advertisement uses it to detect wholesale subgroup changes.
  [[nodiscard]] std::uint64_t rebuild_generation() const { return rebuild_generation_; }

  // --- Matching (const; concurrent with other const calls) ----------------

  /// Appends the ids of all matching subscriptions to `out` (unsorted —
  /// callers sort). Exact over the members' current trees: the event
  /// probes every subgroup summary and only the members of admitting
  /// subgroups are evaluated, so a summary that wrongly rejected a
  /// matching member would show up as a missing id.
  void match(const Event& event, std::vector<SubscriptionId>& out) const;

  /// Pure probe (no counters): how many subgroups admit the event and how
  /// many member candidates they carry.
  struct Probe {
    std::size_t admitted = 0;
    std::size_t candidates = 0;
  };
  [[nodiscard]] Probe probe(const Event& event) const;

  // --- Introspection -------------------------------------------------------

  /// Non-empty subgroups.
  [[nodiscard]] std::size_t subgroup_count() const;
  /// Allocated subgroup slots (stable indices; some may be empty).
  [[nodiscard]] std::size_t subgroup_slots() const { return subgroups_.size(); }
  /// Summary of subgroup `g`, or nullptr when empty/out of range.
  [[nodiscard]] const SummarySet* subgroup_summary(std::size_t g) const;
  [[nodiscard]] std::size_t subgroup_members(std::size_t g) const;
  /// Subgroup index of a registered subscription; throws std::out_of_range.
  [[nodiscard]] std::size_t subgroup_of(SubscriptionId id) const;

  /// Total advertisement bytes of the non-empty subgroup summaries — the
  /// aggregated routing-table size a broker would flood instead of the
  /// per-subscription trees.
  [[nodiscard]] std::size_t advertised_bytes() const;

  [[nodiscard]] AggregationCounters counters() const;
  void reset_counters();

 private:
  struct Subgroup {
    SummarySet summary;
    /// Unordered (removal swap-pops); rebuild_subgroup() sorts by id.
    std::vector<Subscription*> members;
    std::size_t removals = 0;
  };
  /// Where a registered subscription lives: subgroups_[subgroup].members[slot].
  struct MemberSlot {
    std::size_t subgroup = 0;
    std::size_t slot = 0;
  };

  /// Builds the summary of one subscription over the current dimensions,
  /// charging cap widenings to the maintenance counter.
  [[nodiscard]] SummarySet summarize(const Subscription& sub);
  /// Routes a summarized subscription into its subgroup at the current
  /// coarsening shift, bounded by `cap` slots. Returns false when a fresh
  /// signature needs a slot beyond the cap and the shift can still climb
  /// (the caller coarsens and re-clusters); at the terminal shift it folds
  /// by modulo instead, so placement always succeeds there.
  [[nodiscard]] bool try_place(Subscription& sub, const SummarySet& set,
                               std::size_t cap);
  /// Re-clusters `members` from scratch at the current shift, climbing the
  /// shift until at most `cap` subgroups suffice. Counts as a full rebuild.
  void replace_all(const std::vector<Subscription*>& members, std::size_t cap);
  /// Re-tightens one subgroup's summary from its members in id order
  /// (and refreshes their slots).
  void rebuild_subgroup(std::size_t g);
  /// Scores every constrained attribute and returns the top dimensions in
  /// score order (desc, id asc tie-break).
  [[nodiscard]] std::vector<AttributeId> choose_dimensions(
      const std::vector<Subscription*>& candidates) const;
  /// Installs a score-ranked dimension choice: dims_ ascending (the
  /// SummarySet layout) plus key_order_ (score-ranked indices into dims_).
  void set_dimensions(const std::vector<AttributeId>& ranked);
  /// Clustering key of one summary set: the signature of the
  /// highest-scored dimension the subscription actually constrains, at the
  /// current coarsening shift. Keying on a single dimension keeps the
  /// distinct-key count near the largest dimension's cardinality instead
  /// of the cross product of all dimensions, so the cap is met without
  /// coarsening the quantization into uselessness.
  [[nodiscard]] std::uint64_t signature_of(const SummarySet& set) const;
  /// Rescores dimensions over the live members; full rebuild when changed.
  void rescore();
  /// Population-milestone rescore (64, 256, 1024, ... members), keeping
  /// the bootstrap dimension choice self-correcting without training.
  void maybe_auto_rescore();
  [[nodiscard]] std::vector<Subscription*> members_by_id() const;

  const Schema* schema_;
  AggregatorOptions options_;
  const EventStats* stats_ = nullptr;
  std::vector<AttributeId> dims_;
  /// Indices into dims_ in score order (best first) — the clustering-key
  /// preference order of signature_of().
  std::vector<std::size_t> key_order_;
  /// Signature-coarsening shift; grows on subgroup-cap overflow so similar
  /// subscriptions merge instead of folding arbitrary signatures together.
  unsigned shift_ = 0;
  std::vector<Subgroup> subgroups_;
  /// First-seen signature (at shift_) -> subgroup slot.
  std::unordered_map<std::uint64_t, std::size_t> by_signature_;
  std::unordered_map<SubscriptionId::value_type, MemberSlot> member_subgroup_;
  std::size_t mutations_ = 0;
  std::uint64_t rebuild_generation_ = 0;
  std::size_t next_auto_rescore_ = 64;

  // Maintenance-side counters (externally serialized with churn).
  std::uint64_t summary_widenings_ = 0;
  std::uint64_t subgroup_rebuilds_ = 0;
  std::uint64_t full_rebuilds_ = 0;
  // Probe-side counters (relaxed atomics; match() is const).
  mutable std::atomic<std::uint64_t> events_probed_{0};
  mutable std::atomic<std::uint64_t> subgroups_admitted_{0};
  mutable std::atomic<std::uint64_t> subgroups_skipped_{0};
  mutable std::atomic<std::uint64_t> candidates_evaluated_{0};
  mutable std::atomic<std::uint64_t> matches_{0};
};

}  // namespace dbsp::agg
