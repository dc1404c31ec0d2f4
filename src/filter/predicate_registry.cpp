#include "filter/predicate_registry.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dbsp {

PredicateRegistry::AddResult PredicateRegistry::add_reference(const Predicate& pred,
                                                              SubscriptionId sub) {
  AddResult result;
  PredicateId id;
  if (auto it = intern_.find(pred); it != intern_.end()) {
    id = it->second;
  } else {
    result.new_predicate = true;
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
      entries_[id.value()].pred = std::make_unique<Predicate>(pred);
    } else {
      id = PredicateId(static_cast<PredicateId::value_type>(entries_.size()));
      entries_.emplace_back();
      entries_.back().pred = std::make_unique<Predicate>(pred);
    }
    // A predicate with a NaN operand equals no predicate, itself included:
    // the map could never find it again, so each such leaf gets its own id.
    if (pred.equals(pred)) intern_.emplace(pred, id);
    ++live_predicates_;
  }
  Entry& e = entries_[id.value()];
  ++e.total_refs;
  auto assoc = std::find_if(e.subs.begin(), e.subs.end(),
                            [&](const Association& a) { return a.subscription == sub; });
  if (assoc == e.subs.end()) {
    e.subs.push_back({sub, 1});
    ++association_count_;
    result.new_association = true;
  } else {
    ++assoc->leaf_refs;
  }
  result.id = id;
  return result;
}

PredicateRegistry::ReleaseResult PredicateRegistry::release_reference(PredicateId pred_id,
                                                                      SubscriptionId sub) {
  ReleaseResult result;
  Entry& e = entries_.at(pred_id.value());
  if (!e.pred) throw std::logic_error("registry: release on recycled predicate");
  auto assoc = std::find_if(e.subs.begin(), e.subs.end(),
                            [&](const Association& a) { return a.subscription == sub; });
  if (assoc == e.subs.end()) throw std::logic_error("registry: release without reference");
  assert(assoc->leaf_refs > 0 && e.total_refs > 0);
  --assoc->leaf_refs;
  --e.total_refs;
  if (assoc->leaf_refs == 0) {
    *assoc = e.subs.back();
    e.subs.pop_back();
    --association_count_;
    result.association_removed = true;
  }
  if (e.total_refs == 0) {
    intern_.erase(*e.pred);
    result.removed_predicate = std::move(e.pred);
    e.subs.clear();
    e.subs.shrink_to_fit();
    free_ids_.push_back(pred_id);
    --live_predicates_;
  }
  return result;
}

const Predicate& PredicateRegistry::predicate(PredicateId id) const {
  const Entry& e = entries_.at(id.value());
  if (!e.pred) throw std::logic_error("registry: access to recycled predicate");
  return *e.pred;
}

const std::vector<PredicateRegistry::Association>& PredicateRegistry::associations(
    PredicateId id) const {
  return entries_.at(id.value()).subs;
}

std::optional<PredicateId> PredicateRegistry::find(const Predicate& pred) const {
  auto it = intern_.find(pred);
  if (it == intern_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dbsp
