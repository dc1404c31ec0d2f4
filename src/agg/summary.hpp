#pragma once

/// \file
/// Per-dimension subscription summaries — the aggregation substrate of the
/// subgrouping layer (src/agg/). A DimensionSummary is a sound
/// over-approximation of one attribute's projection of a filter tree's
/// admitted-event set: numeric attributes summarize to a bounded union of
/// closed intervals, categorical attributes to a bounded value set that
/// widens to "any value" when it overflows. A SummarySet bundles one
/// summary per aggregation dimension; `admits(event) == false` proves that
/// no subscription behind the summary can match the event (rejects are
/// exact, admissions may be false positives).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "event/value.hpp"
#include "subscription/node.hpp"

namespace dbsp::agg {

/// Maximum interval segments of a numeric summary; overflow merges the
/// segments separated by the smallest gaps.
inline constexpr std::size_t kMaxIntervals = 4;

/// Widening caps: the bounded-size knobs of every summary. Smaller caps
/// mean smaller advertisements and cheaper probes but looser summaries
/// (more false-positive admissions).
struct SummaryLimits {
  /// Maximum distinct values of a categorical summary; overflow widens the
  /// whole dimension to "any value".
  std::size_t max_values = 16;
};

/// Summary of one attribute dimension. Semantics: for every event the
/// summarized tree matches, (a) if the event lacks the attribute then
/// `may_match_without` is true, and (b) if the event carries the attribute
/// then the value lies in the summarized set. Building keeps this invariant
/// through And (intersection), Or (union) and Not (widen to universe), so
/// a failed `admits_value` check is always a sound reject.
class DimensionSummary {
 public:
  /// One closed segment [lo, hi] of a numeric summary; infinities encode
  /// half-lines (Lt/Le/Gt/Ge leaves).
  struct Interval {
    double lo;
    double hi;
  };

  /// The unconstrained summary: admits any value and absence.
  [[nodiscard]] static DimensionSummary universe(bool numeric);
  /// The empty summary: admits nothing (an unsatisfiable constraint).
  [[nodiscard]] static DimensionSummary none(bool numeric);
  /// Assembles a summary from raw parts, normalizing the payload (interval
  /// sort+merge / value sort+dedup). Building block of the leaf rules.
  [[nodiscard]] static DimensionSummary from_parts(bool numeric, bool may_match_without,
                                                   bool all_values,
                                                   std::vector<Interval> intervals,
                                                   std::vector<Value> values);

  /// Builds the summary of `tree` projected onto `attr`. `numeric` is the
  /// schema's verdict on the attribute (Int/Double → interval form).
  /// Cap-triggered widenings are counted into `*widenings` when non-null.
  [[nodiscard]] static DimensionSummary summarize(const Node& tree, AttributeId attr,
                                                  bool numeric,
                                                  const SummaryLimits& limits,
                                                  std::size_t* widenings);

  /// Union: admits everything either side admits. Widening caps apply.
  [[nodiscard]] static DimensionSummary join(const DimensionSummary& a,
                                             const DimensionSummary& b,
                                             const SummaryLimits& limits,
                                             std::size_t* widenings);
  /// Intersection: admits only what both sides admit.
  [[nodiscard]] static DimensionSummary meet(const DimensionSummary& a,
                                             const DimensionSummary& b);

  /// True when the summary admits an event carrying `value` on this
  /// dimension. A reject is exact; an admission may be a false positive.
  [[nodiscard]] bool admits_value(const Value& value) const;
  /// True when the summary admits an event lacking the attribute.
  [[nodiscard]] bool may_match_without() const { return may_match_without_; }

  [[nodiscard]] bool numeric() const { return numeric_; }
  /// True when any present value is admitted (the widened-out state).
  [[nodiscard]] bool all_values() const { return all_values_; }
  [[nodiscard]] bool unconstrained() const { return all_values_ && may_match_without_; }
  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }
  [[nodiscard]] const std::vector<Value>& values() const { return values_; }

  [[nodiscard]] bool equals(const DimensionSummary& other) const;

  /// Deterministic advertisement size in bytes (flags + segment/value
  /// payload) — what the overlay's byte accounting charges per dimension.
  [[nodiscard]] std::size_t wire_size_bytes() const;

  /// Mixes the summary's shape into `seed`: numeric dimensions contribute
  /// a shape class (half-line vs bounded) plus one coarsely quantized
  /// representative point, categorical dimensions a hash bucket per value,
  /// so similar (not only identical) constraints land in the
  /// same subgroup. `shift` coarsens the quantization further — each step
  /// roughly doubles the bucket widths (numeric: mantissa then exponent
  /// bits drop; categorical: hash-bucket count halves) — so a clusterer
  /// that overflows its subgroup cap can climb shifts until similar
  /// subscriptions merge instead of folding arbitrary ones together.
  [[nodiscard]] std::uint64_t signature(std::uint64_t seed, unsigned shift = 0) const;

  /// Shift beyond which signature() is fully converged (one bucket per
  /// structural shape); climbing further cannot merge anything else.
  static constexpr unsigned kMaxSignatureShift = 32;

 private:
  explicit DimensionSummary(bool numeric) : numeric_(numeric) {}

  void enforce_caps(const SummaryLimits& limits, std::size_t* widenings);

  bool numeric_;
  bool may_match_without_ = false;
  bool all_values_ = false;
  /// Sorted, pairwise-disjoint segments (numeric form, all_values_ off).
  std::vector<Interval> intervals_;
  /// Sorted by Value::key_less, deduplicated (categorical form).
  std::vector<Value> values_;
};

/// One summary per aggregation dimension (parallel vectors, dimensions in
/// ascending attribute order). The subgroup advertisement unit: a broker
/// routes an event toward a summary set only when every dimension admits
/// it.
class SummarySet {
 public:
  SummarySet() = default;

  /// Builds the per-dimension summaries of `tree` over `dims` (ascending
  /// attribute ids; the caller's aggregation-dimension choice).
  [[nodiscard]] static SummarySet summarize(const Node& tree,
                                            const std::vector<AttributeId>& dims,
                                            const Schema& schema,
                                            const SummaryLimits& limits,
                                            std::size_t* widenings);

  /// Widens this set to also admit everything `other` admits. Returns true
  /// when the set changed (the overlay re-advertises only then).
  bool join(const SummarySet& other, const SummaryLimits& limits,
            std::size_t* widenings);

  /// True when every dimension admits the event; false proves no member
  /// subscription matches it.
  [[nodiscard]] bool admits(const Event& event) const;

  /// admits() over pre-resolved dimension values: `values[i]` is the
  /// event's value on dimension i, nullptr when absent. Lets a probe over
  /// many sets sharing one dimension choice pay the event lookups once.
  [[nodiscard]] bool admits_resolved(const Value* const* values) const;

  [[nodiscard]] const std::vector<AttributeId>& dimensions() const { return dims_; }
  [[nodiscard]] const std::vector<DimensionSummary>& summaries() const {
    return summaries_;
  }

  [[nodiscard]] bool equals(const SummarySet& other) const;

  /// Deterministic advertisement size in bytes: per-set header plus the
  /// per-dimension payloads.
  [[nodiscard]] std::size_t wire_size_bytes() const;

  /// Clustering key: subscriptions whose summaries hash alike share a
  /// subgroup. Coarse by construction and coarsened further by `shift`
  /// (see DimensionSummary::signature).
  [[nodiscard]] std::uint64_t signature(unsigned shift = 0) const;

 private:
  std::vector<AttributeId> dims_;
  std::vector<DimensionSummary> summaries_;
};

}  // namespace dbsp::agg
