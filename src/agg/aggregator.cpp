#include "agg/aggregator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>


namespace dbsp::agg {

SubscriptionAggregator::SubscriptionAggregator(const Schema& schema,
                                               AggregatorOptions options)
    : schema_(&schema), options_(options) {
  if (options_.max_subgroups == 0) options_.max_subgroups = 1;
}

SummarySet SubscriptionAggregator::summarize(const Subscription& sub) {
  std::size_t widenings = 0;
  SummarySet set =
      SummarySet::summarize(sub.root(), dims_, *schema_, options_.limits, &widenings);
  summary_widenings_ += widenings;
  return set;
}

void SubscriptionAggregator::set_dimensions(const std::vector<AttributeId>& ranked) {
  dims_ = ranked;
  std::sort(dims_.begin(), dims_.end());
  key_order_.clear();
  key_order_.reserve(ranked.size());
  for (const AttributeId a : ranked) {
    const auto it = std::find(dims_.begin(), dims_.end(), a);
    key_order_.push_back(static_cast<std::size_t>(it - dims_.begin()));
  }
}

std::uint64_t SubscriptionAggregator::signature_of(const SummarySet& set) const {
  for (const std::size_t idx : key_order_) {
    const DimensionSummary& s = set.summaries()[idx];
    // An all-values summary carries no clustering information (at best a
    // presence requirement) — key on the next-ranked dimension instead.
    if (s.all_values()) continue;
    return s.signature(0x51ed2701cbd625a5ULL + dims_[idx].value(), shift_);
  }
  return 0;  // unconstrained on every dimension: the residual subgroup
}

bool SubscriptionAggregator::try_place(Subscription& sub, const SummarySet& set,
                                       std::size_t cap) {
  const std::uint64_t sig = signature_of(set);
  std::size_t g = 0;
  const auto it = by_signature_.find(sig);
  if (it != by_signature_.end()) {
    g = it->second;
  } else if (subgroups_.size() < cap) {
    g = subgroups_.size();
    subgroups_.emplace_back();
    by_signature_.emplace(sig, g);
  } else if (shift_ >= DimensionSummary::kMaxSignatureShift) {
    // The ladder is exhausted (structural shapes alone exceed the cap):
    // fold the residual signatures into existing slots.
    g = static_cast<std::size_t>(sig % subgroups_.size());
  } else {
    return false;
  }
  Subgroup& group = subgroups_[g];
  member_subgroup_.emplace(sub.id().value(), MemberSlot{g, group.members.size()});
  group.members.push_back(&sub);
  std::size_t widenings = 0;
  (void)group.summary.join(set, options_.limits, &widenings);
  summary_widenings_ += widenings;
  return true;
}

void SubscriptionAggregator::replace_all(const std::vector<Subscription*>& members,
                                         std::size_t cap) {
  for (;;) {
    subgroups_.clear();
    by_signature_.clear();
    member_subgroup_.clear();
    bool fits = true;
    for (Subscription* sub : members) {
      if (!try_place(*sub, summarize(*sub), cap)) {
        // Cap overflow at this shift: coarsen one step and re-cluster.
        // The abort fires within the first cap+1 distinct signatures, so
        // failed passes stay cheap relative to the final full pass.
        ++shift_;
        fits = false;
        break;
      }
    }
    if (fits) break;
  }
  ++full_rebuilds_;
}

void SubscriptionAggregator::add(Subscription& sub) {
  if (member_subgroup_.find(sub.id().value()) != member_subgroup_.end()) {
    throw std::invalid_argument("aggregator: duplicate subscription id");
  }
  if (dims_.empty()) {
    // Bootstrap the dimension choice from the first arrival; the
    // population-milestone rescore below corrects it as the mix fills in.
    set_dimensions(choose_dimensions({&sub}));
  }
  const SummarySet set = summarize(sub);
  while (!try_place(sub, set, options_.max_subgroups)) {
    // Subgroup cap overflow: coarsen the signature ladder and re-cluster
    // into half the cap, leaving headroom so the O(n) re-cluster amortizes
    // over at least cap/2 future fresh signatures.
    ++shift_;
    replace_all(members_by_id(), std::max<std::size_t>(1, options_.max_subgroups / 2));
  }
  maybe_auto_rescore();
}

void SubscriptionAggregator::remove(SubscriptionId id) {
  const auto it = member_subgroup_.find(id.value());
  if (it == member_subgroup_.end()) {
    throw std::out_of_range("aggregator: unknown subscription id");
  }
  const auto [g, slot] = it->second;
  member_subgroup_.erase(it);
  Subgroup& group = subgroups_[g];
  // Swap-pop: the last member takes over the departing one's slot.
  if (slot + 1 != group.members.size()) {
    group.members[slot] = group.members.back();
    member_subgroup_.find(group.members[slot]->id().value())->second.slot = slot;
  }
  group.members.pop_back();
  ++group.removals;
  // Re-tighten in proportion to the subgroup's size: a re-tighten costs one
  // summary per member and comes due every max(R, members / R) removals,
  // so a removal costs at most about R summaries amortized.
  const std::size_t due = std::max(kSubgroupRebuildRemovals,
                                   group.members.size() / kSubgroupRebuildRemovals);
  if (group.members.empty() || group.removals >= due) rebuild_subgroup(g);
}

bool SubscriptionAggregator::contains(SubscriptionId id) const {
  return member_subgroup_.find(id.value()) != member_subgroup_.end();
}

void SubscriptionAggregator::rebuild_subgroup(std::size_t g) {
  Subgroup& group = subgroups_[g];
  std::sort(group.members.begin(), group.members.end(),
            [](const Subscription* a, const Subscription* b) { return a->id() < b->id(); });
  group.summary = SummarySet();
  for (std::size_t slot = 0; slot < group.members.size(); ++slot) {
    const Subscription& sub = *group.members[slot];
    member_subgroup_.find(sub.id().value())->second.slot = slot;
    std::size_t widenings = 0;
    (void)group.summary.join(summarize(sub), options_.limits, &widenings);
    summary_widenings_ += widenings;
  }
  group.removals = 0;
  ++subgroup_rebuilds_;
}

std::vector<Subscription*> SubscriptionAggregator::members_by_id() const {
  std::vector<Subscription*> members;
  members.reserve(member_subgroup_.size());
  for (const Subgroup& group : subgroups_) {
    members.insert(members.end(), group.members.begin(), group.members.end());
  }
  std::sort(members.begin(), members.end(),
            [](const Subscription* a, const Subscription* b) { return a->id() < b->id(); });
  return members;
}

std::vector<AttributeId> SubscriptionAggregator::choose_dimensions(
    const std::vector<Subscription*>& candidates) const {
  // Score every constrained attribute: with trained statistics each leaf
  // contributes 1 - selectivity (the paper's pruning score — rarely
  // fulfilled predicates discriminate best), untrained it contributes 1
  // (pure constraint frequency).
  std::vector<double> score(schema_->attribute_count(), 0.0);
  const bool trained = stats_ != nullptr && stats_->events_observed() > 0;
  for (const Subscription* sub : candidates) {
    sub->root().for_each_leaf([&](const Node& leaf) {
      const Predicate& pred = leaf.predicate();
      const std::size_t a = pred.attribute().value();
      if (a >= score.size()) return;
      double weight = 1.0;
      if (trained) {
        weight = 1.0 - std::clamp(stats_->predicate_selectivity(pred), 0.0, 1.0);
        weight = std::max(weight, 0.05);  // keep frequent attrs in the race
      }
      score[a] += weight;
    });
  }
  std::vector<AttributeId> ranked;
  for (std::size_t a = 0; a < score.size(); ++a) {
    if (score[a] > 0.0) ranked.emplace_back(static_cast<AttributeId::value_type>(a));
  }
  std::sort(ranked.begin(), ranked.end(), [&](AttributeId a, AttributeId b) {
    if (score[a.value()] != score[b.value()]) {
      return score[a.value()] > score[b.value()];
    }
    return a < b;
  });
  if (ranked.size() > kDimensions) ranked.resize(kDimensions);
  return ranked;
}

void SubscriptionAggregator::rescore() {
  std::vector<Subscription*> members = members_by_id();
  std::vector<AttributeId> ranked = choose_dimensions(members);
  std::vector<AttributeId> current;
  current.reserve(key_order_.size());
  for (const std::size_t idx : key_order_) current.push_back(dims_[idx]);
  if (ranked.empty() || ranked == current) {
    return;
  }
  set_dimensions(ranked);
  shift_ = 0;  // fresh dimensions: re-derive the smallest shift that fits
  replace_all(members, options_.max_subgroups);
}

void SubscriptionAggregator::maybe_auto_rescore() {
  if (member_subgroup_.size() < next_auto_rescore_) return;
  next_auto_rescore_ *= 4;
  rescore();
}

void SubscriptionAggregator::train(const EventStats& stats) {
  stats_ = &stats;
  rescore();
}

void SubscriptionAggregator::rebuild() {
  std::vector<Subscription*> members = members_by_id();
  // Clean slate: re-derive the smallest coarsening shift the live
  // population needs, so the result is independent of the churn history.
  shift_ = 0;
  replace_all(members, options_.max_subgroups);
}

void SubscriptionAggregator::match(const Event& event,
                                   std::vector<SubscriptionId>& out) const {
  // All subgroups share one dimension choice, so the event's dimension
  // values are resolved once instead of once per subgroup summary.
  std::vector<const Value*> resolved(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) resolved[i] = event.find(dims_[i]);
  std::uint64_t admitted = 0;
  std::uint64_t skipped = 0;
  std::uint64_t candidates = 0;
  std::uint64_t matched = 0;
  for (const Subgroup& group : subgroups_) {
    if (group.members.empty()) continue;
    if (!group.summary.admits_resolved(resolved.data())) {
      ++skipped;
      continue;
    }
    ++admitted;
    candidates += group.members.size();
    for (const Subscription* sub : group.members) {
      if (sub->matches(event)) {
        out.push_back(sub->id());
        ++matched;
      }
    }
  }
  events_probed_.fetch_add(1, std::memory_order_relaxed);
  subgroups_admitted_.fetch_add(admitted, std::memory_order_relaxed);
  subgroups_skipped_.fetch_add(skipped, std::memory_order_relaxed);
  candidates_evaluated_.fetch_add(candidates, std::memory_order_relaxed);
  matches_.fetch_add(matched, std::memory_order_relaxed);
}

SubscriptionAggregator::Probe SubscriptionAggregator::probe(const Event& event) const {
  std::vector<const Value*> resolved(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i) resolved[i] = event.find(dims_[i]);
  Probe p;
  for (const Subgroup& group : subgroups_) {
    if (group.members.empty()) continue;
    if (!group.summary.admits_resolved(resolved.data())) continue;
    ++p.admitted;
    p.candidates += group.members.size();
  }
  return p;
}

std::size_t SubscriptionAggregator::subgroup_count() const {
  std::size_t n = 0;
  for (const Subgroup& group : subgroups_) {
    if (!group.members.empty()) ++n;
  }
  return n;
}

const SummarySet* SubscriptionAggregator::subgroup_summary(std::size_t g) const {
  if (g >= subgroups_.size() || subgroups_[g].members.empty()) return nullptr;
  return &subgroups_[g].summary;
}

std::size_t SubscriptionAggregator::subgroup_members(std::size_t g) const {
  return g < subgroups_.size() ? subgroups_[g].members.size() : 0;
}

std::size_t SubscriptionAggregator::subgroup_of(SubscriptionId id) const {
  const auto it = member_subgroup_.find(id.value());
  if (it == member_subgroup_.end()) {
    throw std::out_of_range("aggregator: unknown subscription id");
  }
  return it->second.subgroup;
}

std::size_t SubscriptionAggregator::advertised_bytes() const {
  std::size_t bytes = 0;
  for (const Subgroup& group : subgroups_) {
    if (!group.members.empty()) bytes += group.summary.wire_size_bytes();
  }
  return bytes;
}

AggregationCounters SubscriptionAggregator::counters() const {
  AggregationCounters c;
  c.events_probed = events_probed_.load(std::memory_order_relaxed);
  c.subgroups_admitted = subgroups_admitted_.load(std::memory_order_relaxed);
  c.subgroups_skipped = subgroups_skipped_.load(std::memory_order_relaxed);
  c.candidates_evaluated = candidates_evaluated_.load(std::memory_order_relaxed);
  c.matches = matches_.load(std::memory_order_relaxed);
  c.summary_widenings = summary_widenings_;
  c.subgroup_rebuilds = subgroup_rebuilds_;
  c.full_rebuilds = full_rebuilds_;
  return c;
}

void SubscriptionAggregator::reset_counters() {
  events_probed_.store(0, std::memory_order_relaxed);
  subgroups_admitted_.store(0, std::memory_order_relaxed);
  subgroups_skipped_.store(0, std::memory_order_relaxed);
  candidates_evaluated_.store(0, std::memory_order_relaxed);
  matches_.store(0, std::memory_order_relaxed);
  summary_widenings_ = 0;
  subgroup_rebuilds_ = 0;
  full_rebuilds_ = 0;
}

}  // namespace dbsp::agg
