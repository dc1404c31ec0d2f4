#include "core/heuristics.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/candidates.hpp"

namespace dbsp {

namespace {

/// Simplified forms that folded to a constant; every other form is an
/// index into ScoringScratch::nodes_.
constexpr std::int32_t kFalse = -1;
constexpr std::int32_t kTrue = -2;

constexpr std::int32_t constant(bool value) { return value ? kTrue : kFalse; }

}  // namespace

template <class ChildFn>
std::int32_t ScoringScratch::combine(const Node& node, const ChildFn& child) {
  switch (node.kind()) {
    case NodeKind::Leaf:  // leaves are simplified by simplify_live only
    case NodeKind::True:
      return kTrue;
    case NodeKind::False:
      return kFalse;
    case NodeKind::Not: {
      const std::int32_t c = child(0);
      if (c < 0) return constant(c == kFalse);
      if (nodes_[c].kind == NodeKind::Not) return kids_[nodes_[c].first];
      stack_.push_back(c);
      return add_node(NodeKind::Not, stack_.size() - 1);
    }
    case NodeKind::And:
    case NodeKind::Or: {
      const bool is_and = node.kind() == NodeKind::And;
      const std::int32_t absorbing = constant(!is_and);
      const std::int32_t neutral = constant(is_and);
      const std::size_t mark = stack_.size();
      bool absorbed = false;
      // Every child is simplified even after an absorbing one, so that the
      // live pass numbers the whole tree.
      for (std::uint32_t i = 0; i < node.children().size(); ++i) {
        const std::int32_t c = child(i);
        absorbed = absorbed || c == absorbing;
        if (absorbed || c == neutral) continue;
        const SimNode& n = nodes_[c];
        if (n.kind == node.kind()) {
          stack_.insert(stack_.end(), kids_.begin() + n.first,
                        kids_.begin() + n.first + n.count);
        } else {
          stack_.push_back(c);
        }
      }
      const std::size_t kept = stack_.size() - mark;
      if (absorbed || kept <= 1) {
        const std::int32_t only =
            absorbed ? absorbing : (kept == 0 ? neutral : stack_[mark]);
        stack_.resize(mark);
        return only;
      }
      return add_node(node.kind(), mark);
    }
  }
  return kFalse;
}

std::int32_t ScoringScratch::add_node(NodeKind kind, std::size_t mark) {
  SimNode n;
  n.kind = kind;
  n.first = static_cast<std::uint32_t>(kids_.size());
  n.count = static_cast<std::uint32_t>(stack_.size() - mark);
  n.bytes = 16 + 8 * std::size_t{n.count};
  const bool is_and = kind == NodeKind::And;
  n.sel = is_and ? SelectivityEstimate::always() : SelectivityEstimate::never();
  std::uint64_t pmin_sum = 0;  // And: saturates at kPminUnsatisfiable
  n.pmin = Node::kPminUnsatisfiable;
  for (std::size_t i = mark; i < stack_.size(); ++i) {
    const std::int32_t kid = stack_[i];
    const SimNode& k = nodes_[kid];
    kids_.push_back(kid);
    n.bytes += k.bytes;
    switch (kind) {
      case NodeKind::Not:
        n.sel = k.sel.negated();
        n.pmin = 0;
        break;
      case NodeKind::And:
        n.sel = n.sel.and_with(k.sel);
        pmin_sum += k.pmin;
        break;
      default:
        n.sel = n.sel.or_with(k.sel);
        n.pmin = std::min(n.pmin, k.pmin);
        break;
    }
  }
  if (is_and) {
    n.pmin = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pmin_sum, Node::kPminUnsatisfiable));
  }
  stack_.resize(mark);
  nodes_.push_back(n);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

std::int32_t ScoringScratch::simplify_live(const Node& node,
                                           const SelectivityEstimator& estimator) {
  const auto id = static_cast<std::uint32_t>(span_.size());
  span_.push_back(0);
  base_.push_back(kFalse);
  live_bytes_ += 16 + 8 * node.children().size();
  std::int32_t form;
  if (node.kind() == NodeKind::Leaf) {
    SimNode n;
    n.sel = SelectivityEstimate::point(estimator.leaf(node.predicate()));
    const std::size_t pred_bytes = node.predicate().size_bytes();
    n.bytes = 16 + pred_bytes;
    live_bytes_ += pred_bytes;
    n.pmin = 1;
    nodes_.push_back(n);
    form = static_cast<std::int32_t>(nodes_.size() - 1);
  } else {
    form = combine(node, [&](std::uint32_t i) {
      return simplify_live(*node.children()[i], estimator);
    });
  }
  span_[id] = static_cast<std::uint32_t>(span_.size()) - id;
  base_[id] = form;
  return form;
}

std::int32_t ScoringScratch::simplify_pruned(const Node& node, std::uint32_t id,
                                             bool positive, const Node::Path& path,
                                             std::size_t depth) {
  const bool child_positive = node.kind() == NodeKind::Not ? !positive : positive;
  const std::uint32_t target = path[depth];
  std::uint32_t child_id = id + 1;
  return combine(node, [&](std::uint32_t i) {
    const std::uint32_t cid = child_id;
    child_id += span_[cid];
    if (i != target) return base_[cid];
    // The pruned node becomes the generalizing constant: TRUE in positive
    // polarity, FALSE in negative polarity.
    if (depth + 1 == path.size()) return constant(child_positive);
    return simplify_pruned(*node.children()[i], cid, child_positive, path, depth + 1);
  });
}

std::span<const PruneScores> HeuristicScorer::score_all(
    const Node& current, std::span<const Node::Path> paths,
    const OriginalProfile& original, ScoringScratch& s) const {
  s.scores_.clear();
  if (paths.empty()) return s.scores_;
  s.nodes_.clear();
  s.kids_.clear();
  s.stack_.clear();
  s.span_.clear();
  s.base_.clear();
  s.live_bytes_ = 0;
  (void)s.simplify_live(current, *estimator_);
  const std::size_t live_nodes = s.nodes_.size();
  const std::size_t live_kids = s.kids_.size();
  const auto current_bytes = static_cast<double>(s.live_bytes_);

  for (const Node::Path& path : paths) {
    const std::int32_t root = s.simplify_pruned(current, 0, /*positive=*/true, path, 0);
    if (root < 0) {
      // Unreachable for valid targets; guard against future operator changes.
      throw std::logic_error("pruning: tree collapsed to a constant");
    }
    const ScoringScratch::SimNode& pruned = s.nodes_[root];
    PruneScores scores;
    scores.sel_degradation =
        std::max(0.0, selectivity_degradation(original.sel, pruned.sel));
    scores.mem_improvement = current_bytes - static_cast<double>(pruned.bytes);
    const double pruned_pmin = pruned.pmin == Node::kPminUnsatisfiable
                                   ? 0.0
                                   : static_cast<double>(pruned.pmin);
    scores.eff_improvement = pruned_pmin - static_cast<double>(original.pmin);
    s.scores_.push_back(scores);
    s.nodes_.resize(live_nodes);
    s.kids_.resize(live_kids);
  }
  return s.scores_;
}

PruneScores HeuristicScorer::score(const Node& current, const Node::Path& path,
                                   const OriginalProfile& original) const {
  if (!is_prunable_child(current, path)) {
    throw std::invalid_argument("pruning: target is not a prunable child");
  }
  ScoringScratch scratch;
  return score_all(current, std::span(&path, 1), original, scratch)[0];
}

}  // namespace dbsp
