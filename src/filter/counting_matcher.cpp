#include "filter/counting_matcher.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <unordered_map>

namespace dbsp {

namespace {

/// Pc one past the subtree at `pc` (a leaf's arg is its predicate id).
template <typename Instr>
std::uint32_t subtree_end(const Instr* program, std::uint32_t pc) {
  return program[pc].kind == NodeKind::Leaf ? pc + 1 : program[pc].arg;
}

}  // namespace

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
  if (pred_slots_.size() < needed) {
    pred_slots_.resize(needed);
    pred_links_.resize(needed);
    leaf_estimate_.resize(needed);
    leaf_test_.resize(needed);
    link_refs_.resize(needed);
  }
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

void CountingMatcher::compile(const Node& node, Program& program) {
  const std::size_t pc = program.size();
  program.push_back({node.kind(), false, false, 0});
  if (node.kind() != NodeKind::Leaf) {
    for (const auto& child : node.children()) compile(*child, program);
    program[pc].arg = static_cast<std::uint32_t>(program.size());
    return;
  }
  const auto result = registry_.add_reference(node.predicate());
  program[pc].arg = result.id.value();
  grow_predicate_arrays();
  if (result.new_predicate) {
    const Predicate& pred = registry_.predicate(result.id);
    assert(!leaf_test_[result.id.value()].indexed);
    leaf_test_[result.id.value()] = leaf_test_of(pred);
    if (!leaf_test_[result.id.value()].testable) index_predicate(result.id.value());
    leaf_estimate_[result.id.value()] = estimate(pred);
  }
}

CountingMatcher::LeafTest CountingMatcher::leaf_test_of(const Predicate& pred) {
  LeafTest test;
  test.attr = pred.attribute().value();
  test.op = pred.op();
  switch (pred.op()) {
    case Op::Eq:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Between: break;
    default: return test;
  }
  const auto exact = [](const Value& v) {
    return v.is_numeric() && v.numeric_is_exact() && !std::isnan(v.numeric());
  };
  const auto& operands = pred.operands();
  if (!std::all_of(operands.begin(), operands.end(), exact)) return test;
  test.low = operands.front().numeric();
  test.high = operands.back().numeric();
  test.testable = true;
  return test;
}

void CountingMatcher::index_predicate(std::uint32_t pid) {
  const Predicate& pred = registry_.predicate(PredicateId(pid));
  attr_index_[pred.attribute().value()].insert(PredicateId(pid), pred);
  leaf_test_[pid].indexed = true;
}

void CountingMatcher::unindex_predicate(std::uint32_t pid) {
  const Predicate& pred = registry_.predicate(PredicateId(pid));
  attr_index_[pred.attribute().value()].remove(PredicateId(pid), pred);
  leaf_test_[pid].indexed = false;
}

void CountingMatcher::flush_unindexed() {
  for (const std::uint32_t pid : unindex_) {
    if (leaf_test_[pid].indexed && pred_slots_[pid].empty()) unindex_predicate(pid);
  }
  unindex_.clear();
}

std::uint32_t CountingMatcher::load_program(const Subscription& sub, std::uint32_t slot,
                                           std::size_t size) {
  compiled_.clear();
  compile(sub.root(), compiled_);
  const std::uint32_t pmin = choose_access(compiled_);
  // Leaves, associations and links in one pass: link_refs_ marks bit 1 for
  // a predicate seen, bit 2 for one seen on an access leaf.
  std::size_t leaves = 0;
  std::size_t links = 0;
  for (const Instr& op : compiled_) {
    if (op.kind != NodeKind::Leaf) continue;
    ++leaves;
    std::uint32_t& seen = link_refs_[op.arg];
    association_count_ += (seen & 1) == 0;
    links += op.access && (seen & 2) == 0;
    seen |= op.access ? 3 : 1;
  }
  for (const Instr& op : compiled_) {
    if (op.kind == NodeKind::Leaf) link_refs_[op.arg] = 0;
  }
  Program& program = slots_[slot].program;  // empty: a new slot, or moved out
  program.reserve(size + 1 + 2 * leaves + links);
  program.assign(compiled_.begin(), compiled_.end());
  program.resize(size + 1 + 2 * leaves);
  compile_branches(program);
  return pmin;
}

void CountingMatcher::compile_branches(Program& program) {
  const std::uint32_t size = tree_size(program);
  std::uint32_t next_op = (static_cast<std::uint32_t>(program.size()) - size - 1) / 2;
  Instr* ops = program.data() + size + 1;
  const std::uint32_t entry = emit(program.data(), ops, 0, kAccept, kReject, next_op);
  program[size] = {NodeKind::True, false, false, entry};
  assert(next_op == 0);
}

std::uint32_t CountingMatcher::emit(const Instr* program, Instr* ops, std::uint32_t pc,
                                    std::uint32_t on_true, std::uint32_t on_false,
                                    std::uint32_t& next_op) {
  const Instr op = program[pc];
  switch (op.kind) {
    case NodeKind::Leaf: {
      const Branch branch{op.arg, on_true, on_false, op.direct};
      std::memcpy(static_cast<void*>(ops + 2 * --next_op), &branch, sizeof branch);
      return next_op;
    }
    case NodeKind::True: return on_true;
    case NodeKind::False: return on_false;
    case NodeKind::Not: return emit(program, ops, pc + 1, on_false, on_true, next_op);
    case NodeKind::And:
    case NodeKind::Or: {
      // Last child first: each child continues into the one after it, on
      // true under an And and on false under an Or.
      const std::size_t base = children_.size();
      for (std::uint32_t child = pc + 1; child < op.arg; child = subtree_end(program, child)) {
        children_.push_back(child);
      }
      const bool is_and = op.kind == NodeKind::And;
      std::uint32_t next = is_and ? on_true : on_false;
      while (children_.size() > base) {
        const std::uint32_t child = children_.back();
        children_.pop_back();
        next = is_and ? emit(program, ops, child, next, on_false, next_op)
                      : emit(program, ops, child, on_true, next, next_op);
      }
      return next;
    }
  }
  return on_false;
}

CountingMatcher::Branch CountingMatcher::branch_op(const Instr* ops, std::uint32_t i) {
  Branch branch;
  std::memcpy(static_cast<void*>(&branch), ops + 2 * i, sizeof branch);
  return branch;
}

std::uint32_t CountingMatcher::tree_size(const Program& program) {
  return subtree_end(program.data(), 0);
}

std::span<const CountingMatcher::Instr> CountingMatcher::tree(const Program& program) {
  return std::span(program).first(tree_size(program));
}

std::uint32_t CountingMatcher::branch_end(const Program& program) {
  const auto ops = tree(program);
  const auto leaves = static_cast<std::uint32_t>(std::count_if(
      ops.begin(), ops.end(), [](const Instr& op) { return op.kind == NodeKind::Leaf; }));
  return static_cast<std::uint32_t>(ops.size()) + 1 + 2 * leaves;
}

std::uint32_t CountingMatcher::distinct_predicates(const Program& program) {
  // A NaN operand makes each such leaf an id of its own.
  std::uint32_t distinct = 0;
  for (const Instr& op : tree(program)) {
    if (op.kind == NodeKind::Leaf && link_refs_[op.arg]++ == 0) ++distinct;
  }
  for (const Instr& op : tree(program)) {
    if (op.kind == NodeKind::Leaf) link_refs_[op.arg] = 0;
  }
  return distinct;
}

std::uint32_t CountingMatcher::access_leaves(const Program& program, std::uint32_t pid) {
  const auto ops = tree(program);
  return static_cast<std::uint32_t>(std::count_if(ops.begin(), ops.end(), [pid](const Instr& op) {
    return op.kind == NodeKind::Leaf && op.access && op.arg == pid;
  }));
}

void CountingMatcher::release_program(const Program& program) {
  for (const Instr& op : tree(program)) {
    if (op.kind != NodeKind::Leaf) continue;
    const PredicateId pid(op.arg);
    if (auto removed = registry_.release_reference(pid)) {
      assert(pred_slots_[pid.value()].empty());
      LeafTest& test = leaf_test_[pid.value()];
      if (test.indexed) attr_index_[removed->attribute().value()].remove(pid, *removed);
      test.indexed = false;
    }
  }
}

double CountingMatcher::estimate(const Predicate& pred) const {
  if (!leaf_estimate_fn_) return 0.0;
  const double p = leaf_estimate_fn_(pred);
  return p >= 0.0 && p <= 1.0 ? p : 1.0;  // NaN fails both comparisons
}

CountingMatcher::AccessCost CountingMatcher::cost(const Instr* program,
                                                  std::uint32_t pc) const {
  const Instr op = program[pc];
  switch (op.kind) {
    case NodeKind::Leaf: {
      const double p = leaf_estimate_[op.arg];
      return {1, p, p};
    }
    case NodeKind::True: return {0, 0.0, 1.0};
    case NodeKind::False: return {Node::kPminUnsatisfiable, 0.0, 0.0};
    case NodeKind::Not: {
      AccessCost c{0, 0.0, 1.0};
      for (std::uint32_t i = pc + 1; i < op.arg; ++i) {
        if (program[i].kind == NodeKind::Leaf && program[i].access) {
          c.bumps += leaf_estimate_[program[i].arg];
        }
      }
      return c;
    }
    case NodeKind::And: {
      AccessCost c{0, 0.0, 1.0};
      std::uint64_t pmin = 0;
      for (std::uint32_t child = pc + 1; child < op.arg; child = subtree_end(program, child)) {
        if (!program[child].access) continue;
        const AccessCost k = cost(program, child);
        pmin += k.pmin;
        c.bumps += k.bumps;
        c.trigger *= k.trigger;
      }
      c.pmin = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(pmin, Node::kPminUnsatisfiable));
      return c;
    }
    case NodeKind::Or: {
      AccessCost c{Node::kPminUnsatisfiable, 0.0, 0.0};
      double none = 1.0;  // P(no child triggers)
      for (std::uint32_t child = pc + 1; child < op.arg; child = subtree_end(program, child)) {
        const AccessCost k = cost(program, child);
        c.pmin = std::min(c.pmin, k.pmin);
        c.bumps += k.bumps;
        none *= 1.0 - k.trigger;
      }
      c.trigger = 1.0 - none;
      return c;
    }
  }
  return {};
}

void CountingMatcher::drop_costly_children(Instr* program, std::uint32_t pc) const {
  const std::uint32_t end = program[pc].arg;
  for (;;) {
    double bumps = 0.0;
    double trigger = 1.0;
    double rarest = 2.0;
    double likeliest = -1.0;
    double likeliest_bumps = 0.0;
    std::uint32_t likeliest_pc = 0;
    std::uint32_t kept = 0;
    for (std::uint32_t child = pc + 1; child < end; child = subtree_end(program, child)) {
      if (!program[child].access) continue;
      const AccessCost k = cost(program, child);
      ++kept;
      bumps += k.bumps;
      trigger *= k.trigger;
      rarest = std::min(rarest, k.trigger);
      if (k.trigger > likeliest) {
        likeliest = k.trigger;
        likeliest_bumps = k.bumps;
        likeliest_pc = child;
      }
    }
    if (kept < 2 || !(likeliest > rarest)) return;
    // likeliest > rarest >= 0, so dividing it out of the product is safe.
    const double keep_cost = bumps + kEvalCost * trigger;
    const double drop_cost = bumps - likeliest_bumps + kEvalCost * (trigger / likeliest);
    if (!(drop_cost < keep_cost)) return;
    const std::uint32_t drop_end = subtree_end(program, likeliest_pc);
    for (std::uint32_t i = likeliest_pc; i < drop_end; ++i) program[i].access = false;
  }
}

void CountingMatcher::choose(Instr* program, std::uint32_t pc) const {
  const Instr op = program[pc];
  program[pc].access = true;
  switch (op.kind) {
    case NodeKind::Leaf:
    case NodeKind::True:
    case NodeKind::False: return;
    case NodeKind::Not:
      // Its leaves add nothing to pmin; they stay counted (as in the
      // paper) until a parent And finds dropping the Not cheaper.
      for (std::uint32_t i = pc + 1; i < op.arg; ++i) program[i].access = true;
      return;
    case NodeKind::And:
    case NodeKind::Or:
      for (std::uint32_t child = pc + 1; child < op.arg; child = subtree_end(program, child)) {
        choose(program, child);
      }
      if (op.kind == NodeKind::And) drop_costly_children(program, pc);
      return;
  }
}

std::uint32_t CountingMatcher::choose_access(Program& program) const {
  choose(program.data(), 0);
  const AccessCost root = cost(program.data(), 0);
  const std::span<Instr> ops = std::span(program).first(tree_size(program));
  // A root that triggers always or never gains nothing from counting.
  if ((root.pmin == 0 || root.pmin == Node::kPminUnsatisfiable) && root.bumps > 0.0) {
    for (Instr& op : ops) op.access = false;
  }
  for (Instr& op : ops) {
    op.direct = op.kind == NodeKind::Leaf && !op.access && leaf_test_[op.arg].testable;
  }
  return root.pmin;
}

void CountingMatcher::link(std::uint32_t slot) {
  Program& program = slots_[slot].program;
  const std::uint32_t size = tree_size(program);
  const auto end = static_cast<std::uint32_t>(program.size());
  std::uint32_t links = 0;
  for (const Instr& op : tree(program)) {
    if (op.kind == NodeKind::Leaf && op.access && link_refs_[op.arg]++ == 0) ++links;
  }
  program.resize(end + links);
  const std::uint16_t pmin = PredSub::narrow(slot_pmin_[slot]);
  std::uint32_t k = 0;
  for (std::uint32_t pc = 0; pc < size; ++pc) {
    const Instr op = program[pc];
    if (op.kind != NodeKind::Leaf || !op.access) continue;
    std::uint32_t& refs = link_refs_[op.arg];
    if (refs == 0) continue;  // a repeated leaf, already linked
    std::vector<PredSub>& list = pred_slots_[op.arg];
    pred_links_[op.arg].push_back(k);
    program[end + links - 1 - k++] = {NodeKind::True, false, false,
                                      static_cast<std::uint32_t>(list.size())};
    list.push_back({slot, PredSub::narrow(refs), pmin});
    refs = 0;
    if (!leaf_test_[op.arg].indexed) index_predicate(op.arg);
  }
}

void CountingMatcher::unlink(std::uint32_t slot) {
  Program& program = slots_[slot].program;
  std::uint32_t link = 0;  // the link ops, in link()'s order
  for (const Instr& op : tree(program)) {
    if (op.kind != NodeKind::Leaf || !op.access) continue;
    std::uint32_t& seen = link_refs_[op.arg];
    if (seen != 0) continue;  // a repeated leaf, already unlinked
    seen = 1;
    const std::uint32_t pos = program[program.size() - 1 - link++].arg;
    std::vector<PredSub>& list = pred_slots_[op.arg];
    std::vector<std::uint32_t>& links = pred_links_[op.arg];
    // Swap-pop; the entry moved into the hole tells its slot where it is.
    list[pos] = list.back();
    links[pos] = links.back();
    list.pop_back();
    links.pop_back();
    if (pos < list.size()) {
      Program& moved = slots_[list[pos].slot].program;
      moved[moved.size() - 1 - links[pos]].arg = pos;
    }
    if (list.empty() && leaf_test_[op.arg].testable) unindex_.push_back(op.arg);
  }
  for (const Instr& op : tree(program)) {
    if (op.kind == NodeKind::Leaf && op.access) link_refs_[op.arg] = 0;
  }
  program.resize(program.size() - link);
}

void CountingMatcher::set_leaf_estimate(LeafEstimate estimate) {
  leaf_estimate_fn_ = std::move(estimate);
  rechoose_access_sets();
}

void CountingMatcher::rechoose_access_sets() {
  for (std::uint32_t id = 0; id < pred_slots_.size(); ++id) {
    pred_slots_[id].clear();
    pred_links_[id].clear();
    if (registry_.live(PredicateId(id))) {
      leaf_estimate_[id] = estimate(registry_.predicate(PredicateId(id)));
    }
  }
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    Program& program = slots_[slot].program;
    if (program.empty()) continue;
    program.resize(branch_end(program));  // the lists were cleared: drop the link ops
    set_pmin(slot, choose_access(program));
    compile_branches(program);  // the in-place bits moved
    link(slot);
  }
  // link() indexed what gained a link; take out what lost every one.
  for (std::uint32_t id = 0; id < pred_slots_.size(); ++id) {
    const LeafTest& test = leaf_test_[id];
    if (test.testable && test.indexed && pred_slots_[id].empty()) unindex_predicate(id);
  }
}

bool CountingMatcher::test_in_place(std::uint32_t pid, MatchContext& context) const {
  ++context.counters_.leaf_tests;
  const LeafTest& test = leaf_test_[pid];
  const Value* value = context.values_[test.attr];
  if (value == nullptr) return false;  // a missing attribute fulfils no predicate
  double v;
  switch (value->type()) {
    case ValueType::Double: v = value->as_double(); break;
    case ValueType::Int: {
      // Up to 2^53 an Int converts exactly, so comparing doubles is exact.
      constexpr std::int64_t kExact = std::int64_t{1} << 53;
      const std::int64_t i = value->as_int();
      if (i < -kExact || i > kExact) {
        return registry_.predicate(PredicateId(pid)).matches_value(*value);
      }
      v = static_cast<double>(i);
      break;
    }
    default: return registry_.predicate(PredicateId(pid)).matches_value(*value);
  }
  // A NaN value fails every comparison, as Value::less and equals say.
  switch (test.op) {
    case Op::Eq: return v == test.low;
    case Op::Lt: return v < test.low;
    case Op::Le: return v <= test.low;
    case Op::Gt: return v > test.low;
    case Op::Ge: return v >= test.low;
    default: return test.low <= v && v <= test.high;  // Between
  }
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
  slots_[slot].id = sub.id();
  slot_pmin_[slot] = 1;  // placeholder != 0 so set_pmin tracks the always list
  set_pmin(slot, load_program(sub, slot, size));
  link(slot);
  ++live_subs_;
}

void CountingMatcher::remove(Subscription& sub) { remove(sub.id()); }

void CountingMatcher::remove(SubscriptionId id) {
  const std::uint32_t slot = slot_of(id);
  // Pull the slot out of the always-eval list before releasing references.
  set_pmin(slot, 1);
  unlink(slot);
  flush_unindexed();
  association_count_ -= distinct_predicates(slots_[slot].program);
  release_program(slots_[slot].program);
  slot_by_id_.erase(id.value());
  slots_[slot] = Slot{};
  free_slots_.push_back(slot);
  --live_subs_;
}

void CountingMatcher::reindex(Subscription& sub) {
  const std::uint32_t slot = slot_of(sub.id());
  const std::size_t size = checked_size(sub.root());
  unlink(slot);
  const Program old_program = std::move(slots_[slot].program);
  association_count_ -= distinct_predicates(old_program);
  // Compile the new tree first so predicates shared between old and new
  // trees never drop to zero references (which would thrash the attribute
  // index).
  const std::uint32_t pmin = load_program(sub, slot, size);
  release_program(old_program);
  set_pmin(slot, pmin);
  link(slot);
  flush_unindexed();
}

void CountingMatcher::match(const Event& event, std::vector<SubscriptionId>& out,
                            MatchContext& ctx) const {
  // Size the context to the index; zeroed entries belong to no epoch.
  if (ctx.pred_epoch_.size() < pred_slots_.size()) ctx.pred_epoch_.resize(pred_slots_.size());
  if (ctx.slot_counter_.size() < slots_.size()) ctx.slot_counter_.resize(slots_.size());
  if (ctx.values_.size() < attr_index_.size()) ctx.values_.resize(attr_index_.size());
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
    ctx.values_[attr.value()] = &value;
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
          c.remaining = entry.pmin != PredSub::kWide ? entry.pmin : slot_pmin_[entry.slot];
        }
        // 0 left: already a candidate, or pmin == 0 (on the always list).
        if (c.remaining == 0) continue;
        std::uint32_t refs = entry.leaf_refs;
        if (refs == PredSub::kWide) [[unlikely]] {
          refs = access_leaves(slots_[entry.slot].program, pid.value());
        }
        if (c.remaining > refs) {
          c.remaining -= refs;
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
      if (!slots_[slot].program.empty()) ctx.candidates_.push_back(slot);
    }
  }

  ctx.counters_.tree_evaluations += ctx.candidates_.size();
  const std::vector<std::uint32_t>& candidates = ctx.candidates_;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    // The candidates' slots and programs lie far apart: fetch ahead.
    if (i + 8 < candidates.size()) __builtin_prefetch(&slots_[candidates[i + 8]]);
    if (i + 4 < candidates.size()) __builtin_prefetch(slots_[candidates[i + 4]].program.data());
    const Slot& s = slots_[candidates[i]];
    const std::uint32_t size = tree_size(s.program);
    const Instr* ops = s.program.data() + size + 1;
    std::uint32_t pc = s.program[size].arg;
    while (pc < kReject) {
      const Branch op = branch_op(ops, pc);
      const bool holds =
          op.direct ? test_in_place(op.pred, ctx) : ctx.pred_epoch_[op.pred] == epoch;
      pc = holds ? op.on_true : op.on_false;
    }
    if (pc == kAccept) {
      ++ctx.counters_.matches;
      out.push_back(s.id);
    }
  }
  for (const auto& [attr, value] : event.pairs()) {
    if (attr.value() < attr_index_.size()) ctx.values_[attr.value()] = nullptr;
  }
}

std::string CountingMatcher::audit() const {
  std::size_t associations = 0;
  std::size_t links = 0;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Slot& s = slots_[slot];
    if (s.program.empty()) continue;
    const std::string at = "slot " + std::to_string(slot) + ": ";
    // Branch op i is leaf i; a target is a later op, kAccept or kReject.
    const std::uint32_t size = tree_size(s.program);
    const std::uint32_t end = branch_end(s.program);
    const auto target = [&](std::uint32_t to, std::uint32_t from) {
      return to == kAccept || to == kReject || (to >= from && to < (end - size - 1) / 2);
    };
    if (!target(s.program[size].arg, 0)) return at + "branch entry";
    std::vector<std::uint32_t> all;
    std::vector<std::uint32_t> order;  // link k's predicate
    std::unordered_map<std::uint32_t, std::uint32_t> access;  // access leaves by predicate
    for (const Instr& op : tree(s.program)) {
      if (op.kind != NodeKind::Leaf) continue;
      const Branch branch = branch_op(s.program.data() + size + 1, all.size());
      all.push_back(op.arg);
      if (op.access && access[op.arg]++ == 0) order.push_back(op.arg);
      if (op.direct != (!op.access && leaf_test_[op.arg].testable)) {
        return at + "in-place bit of predicate " + std::to_string(op.arg);
      }
      if (branch.pred != op.arg || branch.direct != op.direct ||
          !target(branch.on_true, all.size()) || !target(branch.on_false, all.size())) {
        return at + "branch op " + std::to_string(all.size() - 1);
      }
    }
    std::sort(all.begin(), all.end());
    associations += static_cast<std::size_t>(std::unique(all.begin(), all.end()) - all.begin());
    if (s.program.size() != end + order.size()) return at + "link count";
    for (std::uint32_t k = 0; k < order.size(); ++k) {
      const std::uint32_t pid = order[k];
      const std::uint32_t pos = s.program[s.program.size() - 1 - k].arg;
      const std::vector<PredSub>& list = pred_slots_[pid];
      if (pos >= list.size() || list[pos].slot != slot ||
          list[pos].leaf_refs != PredSub::narrow(access[pid]) ||
          list[pos].pmin != PredSub::narrow(slot_pmin_[slot]) || pred_links_[pid][pos] != k) {
        return at + "link " + std::to_string(k) + " of predicate " + std::to_string(pid);
      }
    }
    links += order.size();
  }
  if (associations != association_count_) return "association_count()";
  std::size_t entries = 0;
  std::size_t indexed = 0;
  for (std::uint32_t pid = 0; pid < pred_slots_.size(); ++pid) {
    const std::string at = "predicate " + std::to_string(pid) + ": ";
    if (pred_links_[pid].size() != pred_slots_[pid].size()) return at + "link indexes";
    entries += pred_slots_[pid].size();
    const LeafTest& test = leaf_test_[pid];
    if (!registry_.live(PredicateId(pid))) {
      if (test.indexed) return at + "recycled but indexed";
      continue;
    }
    const Predicate& pred = registry_.predicate(PredicateId(pid));
    const LeafTest fresh = leaf_test_of(pred);
    if (test.testable != fresh.testable || test.attr != fresh.attr || test.op != fresh.op ||
        (fresh.testable && (test.low != fresh.low || test.high != fresh.high))) {
      return at + "test record";
    }
    const bool expected = !test.testable || !pred_slots_[pid].empty();
    if (test.indexed != expected ||
        attr_index_[test.attr].contains(PredicateId(pid), pred) != expected) {
      return at + (expected ? "missing from" : "stale in") + " its attribute index";
    }
    if (expected) ++indexed;
  }
  // Every expected link was found where its slot says; any other entry is
  // stale or a duplicate.
  if (entries != links) return "association lists hold stale or duplicate entries";
  std::size_t index_size = 0;
  for (const AttributeIndex& index : attr_index_) index_size += index.size();
  if (index_size != indexed) return "attribute indexes hold stale entries";
  return {};
}

std::size_t CountingMatcher::associations_of(SubscriptionId id) const {
  std::vector<std::uint32_t> leaves;
  for (const Instr& op : tree(slots_[slot_of(id)].program)) {
    if (op.kind == NodeKind::Leaf) leaves.push_back(op.arg);
  }
  std::sort(leaves.begin(), leaves.end());
  return static_cast<std::size_t>(std::unique(leaves.begin(), leaves.end()) - leaves.begin());
}

}  // namespace dbsp
