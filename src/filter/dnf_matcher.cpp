#include "filter/dnf_matcher.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dbsp {

DnfMatcher::DnfMatcher(const Schema& schema) {
  attr_index_.resize(schema.attribute_count());
}

PredicateId DnfMatcher::intern(const Predicate& pred) {
  const auto [id, new_predicate] = registry_.add_reference(pred);
  if (pred_conjunctions_.size() < registry_.capacity()) {
    pred_conjunctions_.resize(registry_.capacity());
  }
  if (new_predicate) {
    attr_index_[pred.attribute().value()].insert(id, registry_.predicate(id));
  }
  return id;
}

void DnfMatcher::release(PredicateId id) {
  if (const auto removed = registry_.release_reference(id)) {
    assert(pred_conjunctions_[id.value()].empty());
    attr_index_[removed->attribute().value()].remove(id, *removed);
  }
}

bool DnfMatcher::add(const Subscription& sub, std::size_t max_conjunctions) {
  if (subs_.count(sub.id().value()) != 0) {
    throw std::invalid_argument("dnf matcher: duplicate subscription");
  }
  sub.root().for_each_leaf([&](const Node& leaf) {
    if (leaf.predicate().attribute().value() >= attr_index_.size()) {
      throw std::out_of_range("dnf matcher: predicate outside schema");
    }
  });
  const auto dnf = to_dnf(sub.root(), max_conjunctions);
  if (!dnf) return false;

  std::vector<std::uint32_t>& conj_ids = subs_[sub.id().value()];
  conj_ids.reserve(dnf->conjunctions.size());
  for (const auto& conjunction : dnf->conjunctions) {
    std::uint32_t cid;
    if (!free_conjunctions_.empty()) {
      cid = free_conjunctions_.back();
      free_conjunctions_.pop_back();
    } else {
      cid = static_cast<std::uint32_t>(conjunctions_.size());
      conjunctions_.emplace_back();
      counter_.push_back(0);
      counter_epoch_.push_back(0);
    }
    Conjunction& c = conjunctions_[cid];
    c.sub = sub.id();
    c.live = true;
    c.preds.clear();
    for (const Predicate& p : conjunction) {
      const PredicateId pid = intern(p);
      c.preds.push_back(pid);
      pred_conjunctions_[pid.value()].push_back(cid);
    }
    c.size = static_cast<std::uint32_t>(c.preds.size());
    association_count_ += c.preds.size();
    ++live_conjunctions_;
    conj_ids.push_back(cid);
  }
  return true;
}

void DnfMatcher::remove(SubscriptionId id) {
  auto it = subs_.find(id.value());
  if (it == subs_.end()) throw std::out_of_range("dnf matcher: unknown subscription");
  for (const std::uint32_t cid : it->second) {
    Conjunction& c = conjunctions_[cid];
    for (const PredicateId pid : c.preds) {
      auto& list = pred_conjunctions_[pid.value()];
      auto pos = std::find(list.begin(), list.end(), cid);
      assert(pos != list.end());
      *pos = list.back();
      list.pop_back();
      release(pid);
    }
    association_count_ -= c.preds.size();
    c = Conjunction{};
    free_conjunctions_.push_back(cid);
    --live_conjunctions_;
  }
  subs_.erase(it);
  sub_epoch_.erase(id.value());
}

void DnfMatcher::match(const Event& event, std::vector<SubscriptionId>& out) {
  ++epoch_;
  scratch_preds_.clear();
  for (const auto& [attr, value] : event.pairs()) {
    if (attr.value() >= attr_index_.size()) continue;
    attr_index_[attr.value()].collect(value, scratch_preds_);
  }
  for (const PredicateId pid : scratch_preds_) {
    for (const std::uint32_t cid : pred_conjunctions_[pid.value()]) {
      if (counter_epoch_[cid] != epoch_) {
        counter_epoch_[cid] = epoch_;
        counter_[cid] = 0;
      }
      if (++counter_[cid] == conjunctions_[cid].size) {
        // Conjunction satisfied; report its subscription once per event.
        const SubscriptionId sub = conjunctions_[cid].sub;
        auto [it, inserted] = sub_epoch_.try_emplace(sub.value(), 0);
        if (it->second != epoch_) {
          it->second = epoch_;
          out.push_back(sub);
        }
      }
    }
  }
}

}  // namespace dbsp
