#include "filter/predicate_registry.hpp"

#include <stdexcept>

namespace dbsp {

PredicateRegistry::AddResult PredicateRegistry::add_reference(const Predicate& pred) {
  AddResult result;
  if (auto it = intern_.find(&pred); it != intern_.end()) {
    result.id = it->second;
  } else {
    result.new_predicate = true;
    if (!free_ids_.empty()) {
      result.id = free_ids_.back();
      free_ids_.pop_back();
      entries_[result.id.value()].pred = std::make_unique<Predicate>(pred);
    } else {
      result.id = PredicateId(static_cast<PredicateId::value_type>(entries_.size()));
      entries_.emplace_back();
      entries_.back().pred = std::make_unique<Predicate>(pred);
    }
    // A predicate with a NaN operand equals no predicate, itself included:
    // the map could never find it again, so each such leaf gets its own id.
    if (pred.equals(pred)) intern_.emplace(entries_[result.id.value()].pred.get(), result.id);
    ++live_predicates_;
  }
  ++entries_[result.id.value()].refs;
  return result;
}

std::unique_ptr<Predicate> PredicateRegistry::release_reference(PredicateId pred_id) {
  Entry& e = entries_.at(pred_id.value());
  if (!e.pred) throw std::logic_error("registry: release on recycled predicate");
  if (--e.refs > 0) return nullptr;
  intern_.erase(e.pred.get());
  free_ids_.push_back(pred_id);
  --live_predicates_;
  return std::move(e.pred);
}

const Predicate& PredicateRegistry::predicate(PredicateId id) const {
  const Entry& e = entries_.at(id.value());
  if (!e.pred) throw std::logic_error("registry: access to recycled predicate");
  return *e.pred;
}

std::optional<PredicateId> PredicateRegistry::find(const Predicate& pred) const {
  auto it = intern_.find(&pred);
  if (it == intern_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dbsp
