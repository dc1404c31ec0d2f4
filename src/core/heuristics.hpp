#pragma once

/// \file
/// Heuristic pricing of candidate prunings: the Δ≈sel / Δ≈mem / Δ≈eff
/// scores of §3.1–3.3 and the lexicographic composite key of §3.4.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dimension.hpp"
#include "selectivity/estimator.hpp"
#include "subscription/node.hpp"

namespace dbsp {

/// The three heuristic ratings of one candidate pruning (paper §3.1–3.3).
struct PruneScores {
  /// Δ≈sel: estimated selectivity degradation vs the *originally
  /// registered* subscription. Smaller is better; >= 0 by construction.
  double sel_degradation = 0.0;
  /// Δ≈mem: bytes saved on the subscription tree vs the tree *immediately
  /// before* this pruning. Larger is better; > 0 for every valid pruning.
  double mem_improvement = 0.0;
  /// Δ≈eff: pmin(pruned) − pmin(original). Larger (closer to zero) is
  /// better: it preserves the counting matcher's evaluation trigger.
  double eff_improvement = 0.0;
};

/// What the engine remembers about a subscription as registered, the fixed
/// baseline of Δ≈sel and Δ≈eff (§3.1/§3.3 compare against the unpruned
/// subscription on purpose — see the paper's discussion of accumulated
/// degradation).
struct OriginalProfile {
  SelectivityEstimate sel;
  std::uint32_t pmin = 0;
};

/// Maps a candidate's scores onto one dimension's axis, oriented so that
/// *smaller is better* for every dimension (Δ≈sel ascending, Δ≈mem and
/// Δ≈eff descending, as in §3.4).
[[nodiscard]] inline double oriented_score(const PruneScores& s, PruneDimension d) {
  switch (d) {
    case PruneDimension::NetworkLoad: return s.sel_degradation;
    case PruneDimension::MemoryUsage: return -s.mem_improvement;
    case PruneDimension::Throughput: return -s.eff_improvement;
  }
  return 0.0;
}

/// Composite lexicographic key for a dimension order; entry 0 is the
/// primary dimension, 1 and 2 break ties (§3.4).
[[nodiscard]] inline std::array<double, 3> composite_key(
    const PruneScores& s, const std::array<PruneDimension, 3>& order) {
  return {oriented_score(s, order[0]), oriented_score(s, order[1]),
          oriented_score(s, order[2])};
}

/// Reusable flat storage of one HeuristicScorer::score_all() call: the
/// live tree simplified as it stands (every subtree's simplified form,
/// indexed by pre-order position) and, appended after it, the few nodes
/// one candidate's pruning rebuilds. The caller owns it, so a scoring pass
/// allocates nothing once the buffers have grown to the largest tree.
class ScoringScratch {
 private:
  friend class HeuristicScorer;

  /// One node of a simplified tree, with the metrics the real node would
  /// report: its sel≈ estimate, size_bytes() and pmin().
  struct SimNode {
    SelectivityEstimate sel;
    std::size_t bytes = 0;
    std::uint32_t pmin = 0;
    NodeKind kind = NodeKind::Leaf;
    std::uint32_t first = 0;  ///< children: kids_[first, first + count)
    std::uint32_t count = 0;
  };

  /// Simplifies the live subtree at `node` (next pre-order position),
  /// recording its span and simplified form; reads each leaf's selectivity.
  std::int32_t simplify_live(const Node& node, const SelectivityEstimator& estimator);
  /// Simplified form of the subtree at `node` (pre-order position `id`,
  /// polarity `positive`) with the node at `path` pruned; `depth` path
  /// steps lead to `node`. Subtrees off the path are looked up, not walked.
  std::int32_t simplify_pruned(const Node& node, std::uint32_t id, bool positive,
                               const Node::Path& path, std::size_t depth);
  /// simplify()'s rule for an inner node whose children simplified to
  /// child(0), child(1), ... (requested once each, in order).
  template <class ChildFn>
  std::int32_t combine(const Node& node, const ChildFn& child);
  /// Appends a `kind` node over the children stack_[mark..] and pops them.
  std::int32_t add_node(NodeKind kind, std::size_t mark);

  std::vector<SimNode> nodes_;
  std::vector<std::int32_t> kids_;   ///< child lists of nodes_
  std::vector<std::int32_t> stack_;  ///< children of the nodes being built
  /// Per pre-order position of the live tree: the subtree's node count and
  /// its simplified form (an index into nodes_, or a constant).
  std::vector<std::uint32_t> span_;
  std::vector<std::int32_t> base_;
  std::size_t live_bytes_ = 0;  ///< size_bytes() of the live tree
  std::vector<PruneScores> scores_;
};

/// Prices candidate prunings. Stateless apart from the estimator; the
/// engine owns the per-subscription OriginalProfiles and the scratch.
/// Concurrent calls are safe as long as each uses its own scratch and
/// neither the estimator nor the scored trees are being mutated.
///
/// Scoring never materializes a pruned tree. score_all() reads every leaf's
/// selectivity once, in pre-order, while it simplifies the live tree into
/// the scratch; each candidate then re-simplifies only the nodes on the
/// path to its target — constant folding, Not(Not(x)), And/And and Or/Or
/// flattening and the single-child hoist, exactly as simplify() does — and
/// reuses the rest. The estimate, size and pmin fold over the simplified
/// children in the order SelectivityEstimator::estimate, Node::size_bytes
/// and Node::pmin use, so the scores equal those measured on
/// simulate_pruning()'s tree bit for bit.
class HeuristicScorer {
 public:
  explicit HeuristicScorer(const SelectivityEstimator& estimator)
      : estimator_(&estimator) {}

  /// Captures the baseline of a freshly registered subscription.
  [[nodiscard]] OriginalProfile profile(const Node& root) const {
    return {estimator_->estimate(root), root.pmin()};
  }

  /// Scores every pruning in `paths` — valid candidates of `current`, the
  /// possibly already-pruned tree — against the original baseline. Entry i
  /// of the result prices paths[i]; it lives in `scratch` until the next
  /// call. Throws std::logic_error if a pruning would collapse the tree.
  [[nodiscard]] std::span<const PruneScores> score_all(
      const Node& current, std::span<const Node::Path> paths,
      const OriginalProfile& original, ScoringScratch& scratch) const;

  /// One candidate; throws std::invalid_argument unless `path` addresses a
  /// prunable child of `current`.
  [[nodiscard]] PruneScores score(const Node& current, const Node::Path& path,
                                  const OriginalProfile& original) const;

  [[nodiscard]] const SelectivityEstimator& estimator() const { return *estimator_; }

 private:
  const SelectivityEstimator* estimator_;
};

}  // namespace dbsp
