#pragma once

#include <algorithm>
#include <string>

namespace dbsp {

/// Three-component selectivity estimate sel≈(s) = (min, avg, max) from the
/// paper's §3.1: the fraction of events a subscription matches is known to
/// lie in [min, max]; avg is the point estimate under predicate
/// independence. Combinators implement Fréchet bounds, so the invariant
/// 0 <= min <= avg <= max <= 1 is preserved by construction.
struct SelectivityEstimate {
  double min = 0.0;
  double avg = 0.0;
  double max = 0.0;

  /// Point estimate: a single probability (used for predicate leaves).
  [[nodiscard]] static SelectivityEstimate point(double p) {
    p = std::clamp(p, 0.0, 1.0);
    return {p, p, p};
  }

  [[nodiscard]] static SelectivityEstimate always() { return {1.0, 1.0, 1.0}; }
  [[nodiscard]] static SelectivityEstimate never() { return {0.0, 0.0, 0.0}; }

  /// Conjunction: min via Fréchet lower bound, avg via independence,
  /// max via the weakest conjunct.
  [[nodiscard]] SelectivityEstimate and_with(const SelectivityEstimate& o) const {
    SelectivityEstimate r;
    r.min = std::max(0.0, min + o.min - 1.0);
    r.avg = avg * o.avg;
    r.max = std::min(max, o.max);
    return r.normalized();
  }

  /// Disjunction: min via the strongest disjunct, avg via independence,
  /// max via the Fréchet upper bound.
  [[nodiscard]] SelectivityEstimate or_with(const SelectivityEstimate& o) const {
    SelectivityEstimate r;
    r.min = std::max(min, o.min);
    r.avg = 1.0 - (1.0 - avg) * (1.0 - o.avg);
    r.max = std::min(1.0, max + o.max);
    return r.normalized();
  }

  [[nodiscard]] SelectivityEstimate negated() const {
    return SelectivityEstimate{1.0 - max, 1.0 - avg, 1.0 - min}.normalized();
  }

  /// Restores the min <= avg <= max ordering after floating-point noise.
  [[nodiscard]] SelectivityEstimate normalized() const {
    SelectivityEstimate r = *this;
    r.min = std::clamp(r.min, 0.0, 1.0);
    r.max = std::clamp(r.max, 0.0, 1.0);
    // Noise can leave min a hair above max (e.g. point(0.1) AND always());
    // std::clamp needs lo <= hi.
    r.min = std::min(r.min, r.max);
    r.avg = std::clamp(r.avg, r.min, r.max);
    return r;
  }

  /// True iff `p` is consistent with the interval (used by soundness tests).
  [[nodiscard]] bool contains(double p, double eps = 1e-9) const {
    return p >= min - eps && p <= max + eps;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Estimated selectivity degradation Δ≈sel(sx, sy) (§3.1): the maximum of
/// the component-wise increases from the original sx to the pruned sy.
[[nodiscard]] inline double selectivity_degradation(const SelectivityEstimate& original,
                                                    const SelectivityEstimate& pruned) {
  return std::max({pruned.min - original.min, pruned.avg - original.avg,
                   pruned.max - original.max});
}

}  // namespace dbsp
