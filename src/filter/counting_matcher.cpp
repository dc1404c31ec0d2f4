#include "filter/counting_matcher.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dbsp {

CountingMatcher::CountingMatcher(const Schema& schema) : schema_(&schema) {
  attr_index_.resize(schema.attribute_count());
}

std::uint32_t CountingMatcher::slot_of(SubscriptionId id) const {
  auto it = slot_by_id_.find(id.value());
  if (it == slot_by_id_.end()) throw std::out_of_range("matcher: unknown subscription");
  return it->second;
}

bool CountingMatcher::contains(SubscriptionId id) const {
  return slot_by_id_.count(id.value()) != 0;
}

void CountingMatcher::grow_predicate_arrays() {
  const std::size_t needed = registry_.capacity();
  if (pred_slots_.size() < needed) pred_slots_.resize(needed);
}

std::size_t CountingMatcher::checked_size(const Node& node) const {
  if (node.kind() == NodeKind::Leaf) {
    if (node.predicate().attribute().value() >= attr_index_.size()) {
      throw std::out_of_range("matcher: predicate on attribute outside schema");
    }
    return 1;
  }
  std::size_t size = 1;
  for (const auto& child : node.children()) size += checked_size(*child);
  return size;
}

void CountingMatcher::compile(const Node& node, SubscriptionId id, std::uint32_t slot,
                              Program& program) {
  const std::size_t pc = program.size();
  program.push_back({node.kind(), 0});
  if (node.kind() != NodeKind::Leaf) {
    for (const auto& child : node.children()) compile(*child, id, slot, program);
    program[pc].arg = static_cast<std::uint32_t>(program.size());
    return;
  }
  const auto result = registry_.add_reference(node.predicate(), id);
  program[pc].arg = result.id.value();
  grow_predicate_arrays();
  if (result.new_predicate) {
    const auto attr = registry_.predicate(result.id).attribute();
    attr_index_[attr.value()].insert(result.id, registry_.predicate(result.id));
    pred_slots_[result.id.value()].clear();
  }
  auto& assoc = pred_slots_[result.id.value()];
  if (result.new_association) {
    assoc.push_back({slot, 1});
  } else {
    // Rare: the same predicate in another leaf of the same subscription.
    auto entry = std::find_if(assoc.begin(), assoc.end(),
                              [&](const PredSub& p) { return p.slot == slot; });
    assert(entry != assoc.end());
    ++entry->leaf_refs;
  }
}

void CountingMatcher::load_program(const Subscription& sub, std::uint32_t slot,
                                   std::size_t size) {
  Program& program = slots_[slot].program;
  program.clear();
  program.reserve(size);
  compile(sub.root(), sub.id(), slot, program);
}

void CountingMatcher::release_program(SubscriptionId id, std::uint32_t slot,
                                      const Program& program) {
  for (const Instr& op : program) {
    if (op.kind != NodeKind::Leaf) continue;
    const PredicateId pid(op.arg);
    auto result = registry_.release_reference(pid, id);
    auto& assoc = pred_slots_[pid.value()];
    auto it = std::find_if(assoc.begin(), assoc.end(),
                           [&](const PredSub& p) { return p.slot == slot; });
    assert(it != assoc.end());
    if (result.association_removed) {
      *it = assoc.back();
      assoc.pop_back();
    } else {
      --it->leaf_refs;
    }
    if (result.removed_predicate) {
      const auto attr = result.removed_predicate->attribute();
      attr_index_[attr.value()].remove(pid, *result.removed_predicate);
    }
  }
}

bool CountingMatcher::run(const Instr* program, std::uint32_t pc,
                          const MatchContext& context) {
  const Instr op = program[pc];
  switch (op.kind) {
    case NodeKind::Leaf: return context.pred_epoch_[op.arg] == context.epoch_;
    case NodeKind::Not: return !run(program, pc + 1, context);
    case NodeKind::And:
    case NodeKind::Or: {
      // And stops at the first false child, Or at the first true one.
      const bool is_and = op.kind == NodeKind::And;
      for (std::uint32_t child = pc + 1; child < op.arg;) {
        if (run(program, child, context) != is_and) return !is_and;
        const Instr next = program[child];
        child = next.kind == NodeKind::Leaf ? child + 1 : next.arg;
      }
      return is_and;
    }
    case NodeKind::True: return true;
    case NodeKind::False: return false;
  }
  return false;
}

void CountingMatcher::set_pmin(std::uint32_t slot, std::uint32_t pmin) {
  std::uint32_t& current = slot_pmin_[slot];
  const bool was_always = current == 0;
  const bool is_always = pmin == 0;
  current = pmin;
  if (was_always == is_always) return;
  if (is_always) {
    always_eval_.push_back(slot);
  } else {
    auto it = std::find(always_eval_.begin(), always_eval_.end(), slot);
    if (it != always_eval_.end()) {
      *it = always_eval_.back();
      always_eval_.pop_back();
    }
  }
}

void CountingMatcher::add(Subscription& sub) {
  if (contains(sub.id())) throw std::invalid_argument("matcher: duplicate subscription id");
  const std::size_t size = checked_size(sub.root());
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slot_pmin_.emplace_back();
  }
  slot_by_id_.emplace(sub.id().value(), slot);
  slots_[slot] = Slot{};
  slots_[slot].sub = &sub;
  load_program(sub, slot, size);
  slot_pmin_[slot] = 1;  // placeholder != 0 so set_pmin tracks the always list
  set_pmin(slot, sub.root().pmin());
  ++live_subs_;
}

void CountingMatcher::remove(Subscription& sub) {
  const std::uint32_t slot = slot_of(sub.id());
  // Pull the slot out of the always-eval list before releasing references.
  set_pmin(slot, 1);
  release_program(sub.id(), slot, slots_[slot].program);
  slot_by_id_.erase(sub.id().value());
  slots_[slot] = Slot{};
  free_slots_.push_back(slot);
  --live_subs_;
}

void CountingMatcher::remove(SubscriptionId id) { remove(*slots_[slot_of(id)].sub); }

void CountingMatcher::reindex(Subscription& sub) {
  const std::uint32_t slot = slot_of(sub.id());
  const std::size_t size = checked_size(sub.root());
  const Program old_program = std::move(slots_[slot].program);
  // Compile the new tree first so predicates shared between old and new
  // trees never drop to zero references (which would thrash the attribute
  // index).
  load_program(sub, slot, size);
  release_program(sub.id(), slot, old_program);
  set_pmin(slot, sub.root().pmin());
}

void CountingMatcher::match(const Event& event, std::vector<SubscriptionId>& out,
                            MatchContext& ctx) const {
  // Size the context to the index; zeroed entries belong to no epoch.
  if (ctx.pred_epoch_.size() < pred_slots_.size()) ctx.pred_epoch_.resize(pred_slots_.size());
  if (ctx.slot_counter_.size() < slots_.size()) ctx.slot_counter_.resize(slots_.size());
  if (++ctx.epoch_ == 0) {  // wrapped: no stale record may read as current
    std::fill(ctx.pred_epoch_.begin(), ctx.pred_epoch_.end(), 0);
    std::fill(ctx.slot_counter_.begin(), ctx.slot_counter_.end(), MatchContext::SlotCounter{});
    ctx.epoch_ = 1;
  }
  const std::uint32_t epoch = ctx.epoch_;
  ++ctx.counters_.events;
  ctx.preds_.clear();
  ctx.candidates_.clear();

  for (const auto& [attr, value] : event.pairs()) {
    if (attr.value() >= attr_index_.size()) continue;
    attr_index_[attr.value()].collect(value, ctx.preds_);
  }
  ctx.counters_.predicate_hits += ctx.preds_.size();

  if (pmin_trigger_) {
    for (const PredicateId pid : ctx.preds_) {
      ctx.pred_epoch_[pid.value()] = epoch;
      const auto& assoc = pred_slots_[pid.value()];
      ctx.counters_.counter_increments += assoc.size();
      for (const PredSub& entry : assoc) {
        MatchContext::SlotCounter& c = ctx.slot_counter_[entry.slot];
        if (c.epoch != epoch) {
          c.epoch = epoch;
          c.remaining = slot_pmin_[entry.slot];
        }
        // 0 left: already a candidate, or pmin == 0 (on the always list).
        if (c.remaining == 0) continue;
        if (c.remaining > entry.leaf_refs) {
          c.remaining -= entry.leaf_refs;
        } else {
          c.remaining = 0;
          ctx.candidates_.push_back(entry.slot);
        }
      }
    }
    for (const std::uint32_t slot : always_eval_) ctx.candidates_.push_back(slot);
  } else {
    // Ablation mode: mark fulfilled predicates, evaluate everything.
    for (const PredicateId pid : ctx.preds_) ctx.pred_epoch_[pid.value()] = epoch;
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].sub != nullptr) ctx.candidates_.push_back(slot);
    }
  }

  ctx.counters_.tree_evaluations += ctx.candidates_.size();
  for (const std::uint32_t slot : ctx.candidates_) {
    const Slot& s = slots_[slot];
    if (run(s.program.data(), 0, ctx)) {
      ++ctx.counters_.matches;
      out.push_back(s.sub->id());
    }
  }
}

std::size_t CountingMatcher::associations_of(SubscriptionId id) const {
  std::vector<std::uint32_t> leaves;
  for (const Instr& op : slots_[slot_of(id)].program) {
    if (op.kind == NodeKind::Leaf) leaves.push_back(op.arg);
  }
  std::sort(leaves.begin(), leaves.end());
  return static_cast<std::size_t>(std::unique(leaves.begin(), leaves.end()) - leaves.begin());
}

}  // namespace dbsp
