#include "filter/attribute_index.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dbsp {

namespace {

bool is_nan(const Value& v) { return v.is_numeric() && std::isnan(v.numeric()); }

/// The part of the index a predicate lives in.
enum class Part { Eq, Less, Greater, Between, Scan };

/// An Int no double equals (past 2^53): its rounded key would order it
/// wrongly in the sorted arrays.
bool unkeyable(const Value& v) { return v.is_numeric() && !v.numeric_is_exact(); }

/// Eq and In go to the hash map, numeric ordered comparisons and Between to
/// the sorted arrays. The rest is scanned: Ne, string operators, ordered
/// operators with non-numeric operands, every predicate with a NaN operand
/// — NaN equals no key and orders against none, so neither the hash map nor
/// a binary search could find it again — and every ordered one with an
/// operand past 2^53 no double equals; matches_value() decides exactly.
Part part_of(const Predicate& pred) {
  const auto& operands = pred.operands();
  if (std::any_of(operands.begin(), operands.end(), is_nan)) return Part::Scan;
  if (pred.op() != Op::Eq && pred.op() != Op::In &&
      std::any_of(operands.begin(), operands.end(), unkeyable)) {
    return Part::Scan;
  }
  switch (pred.op()) {
    case Op::Eq:
    case Op::In:
      return Part::Eq;
    case Op::Lt:
    case Op::Le:
      return operands[0].is_numeric() ? Part::Less : Part::Scan;
    case Op::Gt:
    case Op::Ge:
      return operands[0].is_numeric() ? Part::Greater : Part::Scan;
    case Op::Between:
      return operands[0].is_numeric() && operands[1].is_numeric() ? Part::Between : Part::Scan;
    default:
      return Part::Scan;
  }
}

/// First entry whose key is not below `key`.
template <typename Entry>
auto first_at_or_above(const std::vector<std::pair<double, Entry>>& vec, double key) {
  return std::lower_bound(vec.begin(), vec.end(), key,
                          [](const auto& e, double k) { return e.first < k; });
}

/// Inserts after every entry with an equal key (multimap insertion order).
template <typename Entry>
void insert_sorted(std::vector<std::pair<double, Entry>>& vec, double key, Entry entry) {
  const auto pos = std::upper_bound(vec.begin(), vec.end(), key,
                                    [](double k, const auto& e) { return k < e.first; });
  vec.emplace(pos, key, entry);
}

/// `id`'s entry under `key`, or end().
template <typename Entry>
auto find_sorted(const std::vector<std::pair<double, Entry>>& vec, double key, PredicateId id) {
  auto it = first_at_or_above(vec, key);
  for (; it != vec.end() && it->first == key; ++it) {
    if (it->second.id == id) return it;
  }
  return vec.end();
}

/// Removes `id`'s entry under `key`, keeping the order of the others.
template <typename Entry>
void erase_sorted(std::vector<std::pair<double, Entry>>& vec, double key, PredicateId id) {
  const auto it = find_sorted(vec, key, id);
  if (it == vec.end()) throw std::logic_error("attribute index: ordered predicate missing");
  vec.erase(it);
}

}  // namespace

void AttributeIndex::insert_eq_key(const Value& key, PredicateId id) {
  eq_[key].push_back(id);
}

void AttributeIndex::remove_eq_key(const Value& key, PredicateId id) {
  auto it = eq_.find(key);
  if (it == eq_.end()) throw std::logic_error("attribute index: eq key missing");
  auto& vec = it->second;
  auto pos = std::find(vec.begin(), vec.end(), id);
  if (pos == vec.end()) throw std::logic_error("attribute index: eq predicate missing");
  *pos = vec.back();
  vec.pop_back();
  if (vec.empty()) eq_.erase(it);
}

void AttributeIndex::insert(PredicateId id, const Predicate& pred) {
  ++size_;
  switch (part_of(pred)) {
    case Part::Eq:
      for (const auto& v : pred.operands()) insert_eq_key(v, id);
      return;
    case Part::Less:
      insert_sorted(less_, pred.operand().numeric(), OrderedEntry{id, pred.op() == Op::Le});
      return;
    case Part::Greater:
      insert_sorted(greater_, pred.operand().numeric(), OrderedEntry{id, pred.op() == Op::Ge});
      return;
    case Part::Between:
      insert_sorted(between_, pred.operands()[0].numeric(),
                    IntervalEntry{id, pred.operands()[1].numeric()});
      return;
    case Part::Scan:
      scan_.emplace_back(id, pred);
      return;
  }
}

void AttributeIndex::remove(PredicateId id, const Predicate& pred) {
  if (size_ == 0) throw std::logic_error("attribute index: remove from empty index");
  --size_;
  switch (part_of(pred)) {
    case Part::Eq:
      for (const auto& v : pred.operands()) remove_eq_key(v, id);
      return;
    case Part::Less:
      erase_sorted(less_, pred.operand().numeric(), id);
      return;
    case Part::Greater:
      erase_sorted(greater_, pred.operand().numeric(), id);
      return;
    case Part::Between:
      erase_sorted(between_, pred.operands()[0].numeric(), id);
      return;
    case Part::Scan: {
      auto pos = std::find_if(scan_.begin(), scan_.end(),
                              [&](const auto& entry) { return entry.first == id; });
      if (pos == scan_.end()) throw std::logic_error("attribute index: scan predicate missing");
      *pos = std::move(scan_.back());
      scan_.pop_back();
      return;
    }
  }
}

bool AttributeIndex::contains(PredicateId id, const Predicate& pred) const {
  switch (part_of(pred)) {
    case Part::Eq:
      return std::all_of(pred.operands().begin(), pred.operands().end(), [&](const Value& v) {
        const auto it = eq_.find(v);
        return it != eq_.end() && std::find(it->second.begin(), it->second.end(), id) !=
                                      it->second.end();
      });
    case Part::Less: return find_sorted(less_, pred.operand().numeric(), id) != less_.end();
    case Part::Greater:
      return find_sorted(greater_, pred.operand().numeric(), id) != greater_.end();
    case Part::Between:
      return find_sorted(between_, pred.operands()[0].numeric(), id) != between_.end();
    case Part::Scan:
      return std::any_of(scan_.begin(), scan_.end(),
                         [&](const auto& entry) { return entry.first == id; });
  }
  return false;
}

void AttributeIndex::collect(const Value& value, std::vector<PredicateId>& out) const {
  if (auto it = eq_.find(value); it != eq_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  if (value.is_numeric() && !value.numeric_is_exact()) {
    // An Int no double equals: its rounded value could tie a key it differs
    // from, so compare it exactly with every (exact) key. No key equals it.
    for (const auto& [key, entry] : less_) {
      if (value.less(Value(key))) out.push_back(entry.id);
    }
    for (const auto& [key, entry] : greater_) {
      if (Value(key).less(value)) out.push_back(entry.id);
    }
    for (const auto& [low, entry] : between_) {
      if (Value(low).less(value) && value.less(Value(entry.high))) out.push_back(entry.id);
    }
  } else if (value.is_numeric() && !std::isnan(value.numeric())) {
    // A NaN fulfils no ordered comparison; the binary searches need a total order.
    const double v = value.numeric();
    // attr < c fulfilled iff c > v; attr <= c additionally at c == v.
    auto it = first_at_or_above(less_, v);
    for (; it != less_.end() && it->first == v; ++it) {
      if (it->second.inclusive) out.push_back(it->second.id);
    }
    for (; it != less_.end(); ++it) out.push_back(it->second.id);
    // attr > c fulfilled iff c < v; attr >= c additionally at c == v.
    const auto at_v = first_at_or_above(greater_, v);
    for (it = greater_.begin(); it != at_v; ++it) out.push_back(it->second.id);
    for (; it != greater_.end() && it->first == v; ++it) {
      if (it->second.inclusive) out.push_back(it->second.id);
    }
    for (auto b = between_.begin(); b != between_.end() && b->first <= v; ++b) {
      if (b->second.high >= v) out.push_back(b->second.id);
    }
  }
  for (const auto& [id, pred] : scan_) {
    if (pred.matches_value(value)) out.push_back(id);
  }
}

}  // namespace dbsp
