#include "selectivity/estimator.hpp"

#include <stdexcept>

namespace dbsp {

SelectivityEstimator::SelectivityEstimator(const EventStats& stats)
    : leaf_fn_([&stats](const Predicate& p) { return stats.predicate_selectivity(p); }) {}

SelectivityEstimator::SelectivityEstimator(LeafSelectivityFn leaf_fn)
    : leaf_fn_(std::move(leaf_fn)) {
  if (!leaf_fn_) throw std::invalid_argument("estimator: null leaf oracle");
}

SelectivityEstimate SelectivityEstimator::estimate(const Node& node) const {
  switch (node.kind()) {
    case NodeKind::Leaf:
      return SelectivityEstimate::point(leaf_fn_(node.predicate()));
    case NodeKind::True:
      return SelectivityEstimate::always();
    case NodeKind::False:
      return SelectivityEstimate::never();
    case NodeKind::Not:
      return estimate(*node.children()[0]).negated();
    case NodeKind::And: {
      SelectivityEstimate acc = SelectivityEstimate::always();
      for (const auto& c : node.children()) acc = acc.and_with(estimate(*c));
      return acc;
    }
    case NodeKind::Or: {
      SelectivityEstimate acc = SelectivityEstimate::never();
      for (const auto& c : node.children()) acc = acc.or_with(estimate(*c));
      return acc;
    }
  }
  return SelectivityEstimate::never();
}

}  // namespace dbsp
