#pragma once

#include <functional>

#include "selectivity/estimate.hpp"
#include "selectivity/stats.hpp"
#include "subscription/node.hpp"

namespace dbsp {

/// Oracle mapping a predicate to its point selectivity estimate.
using LeafSelectivityFn = std::function<double(const Predicate&)>;

/// Computes sel≈ for a whole subscription tree from leaf estimates using
/// the interval algebra of SelectivityEstimate (paper §3.1).
class SelectivityEstimator {
 public:
  /// Estimator backed by trained event statistics.
  explicit SelectivityEstimator(const EventStats& stats);
  /// Estimator backed by an arbitrary leaf oracle (tests, what-if analyses).
  explicit SelectivityEstimator(LeafSelectivityFn leaf_fn);

  /// Folds each And/Or's children left to right, starting from always()
  /// and never(); the pruning scorer replays this exact fold.
  [[nodiscard]] SelectivityEstimate estimate(const Node& node) const;
  /// Point estimate of one predicate — the leaf oracle itself.
  [[nodiscard]] double leaf(const Predicate& pred) const { return leaf_fn_(pred); }

 private:
  LeafSelectivityFn leaf_fn_;
};

}  // namespace dbsp
