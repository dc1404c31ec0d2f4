#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dbsp {

PruningEngine::PruningEngine(const SelectivityEstimator& estimator,
                             PruneEngineConfig config, CountingMatcher* matcher)
    : config_(config), scorer_(estimator), matcher_(matcher) {}

void PruningEngine::register_subscription(Subscription& sub) {
  const auto [it, inserted] = position_.emplace(
      sub.id().value(), static_cast<std::uint32_t>(states_.size()));
  if (!inserted) {
    throw std::invalid_argument("pruning engine: duplicate subscription");
  }
  SubState& state = states_.emplace_back();
  state.sub = &sub;
  state.original = scorer_.profile(sub.root());
  state.capacity = push_best_candidate(state);
  total_possible_ += state.capacity;
  ++maintenance_.admissions;
  ++mutations_since_rescore_;
}

void PruningEngine::unregister_subscription(SubscriptionId id) {
  const auto it = position_.find(id.value());
  if (it == position_.end()) return;
  SubState& state = states_[it->second];
  total_possible_ -= state.capacity;
  performed_ -= state.performed;
  // The subscription's queue entry (at most one; none if it had no
  // candidates or was pruned to exhaustion) dies lazily on pop or in the
  // next compaction sweep.
  if (state.queued) ++dead_entries_;
  // Swap-pop: the last state moves into the hole.
  if (&state != &states_.back()) {
    state = std::move(states_.back());
    position_[state.sub->id().value()] = it->second;
  }
  states_.pop_back();
  position_.erase(it);
  ++maintenance_.releases;
  ++mutations_since_rescore_;
  maybe_compact();
}

void PruningEngine::maybe_compact() {
  // Sweep only once dead entries dominate: amortized O(1) per release and
  // the queue never holds more than ~2x live entries.
  constexpr std::size_t kMinDead = 32;
  if (dead_entries_ < kMinDead || dead_entries_ * 2 < queue_.size()) return;
  std::erase_if(queue_, [&](const QueueEntry& entry) {
    const SubState* state = find(entry.sub);
    return state == nullptr || entry.generation != state->sub->generation();
  });
  std::make_heap(queue_.begin(), queue_.end(), Compare{});
  dead_entries_ = 0;
  ++maintenance_.queue_compactions;
}

void PruningEngine::rescore_all() {
  queue_.clear();
  dead_entries_ = 0;
  for (SubState& state : states_) (void)push_best_candidate(state);
  mutations_since_rescore_ = 0;
  ++maintenance_.full_rescores;
}

std::optional<PruningEngine::Best> PruningEngine::best_candidate(
    const SubState& state, std::size_t& capacity) const {
  const Node& root = state.sub->root();
  capacity = enumerate_prunings(root, config_.bottom_up, candidates_);
  if (candidates_.size == 0) return std::nullopt;
  const auto order = config_.effective_order();
  const auto scores =
      scorer_.score_all(root, candidates_.candidates(), state.original, scratch_);
  Best best{0, scores[0], composite_key(scores[0], order)};
  for (std::size_t i = 1; i < scores.size(); ++i) {
    const auto key = composite_key(scores[i], order);
    if (key < best.key) best = {i, scores[i], key};
  }
  return best;
}

std::size_t PruningEngine::push_best_candidate(SubState& state) {
  state.queued = false;
  std::size_t capacity = 0;
  const auto best = best_candidate(state, capacity);
  if (!best) return capacity;
  // A swap hands the buffer the old path's capacity: neither allocates.
  std::swap(state.best_path, candidates_.paths[best->index]);
  state.best_scores = best->scores;
  push_heap({best->key, next_seq_++, state.sub->generation(), state.sub->id()});
  state.queued = true;
  return capacity;
}

void PruningEngine::push_heap(QueueEntry entry) {
  queue_.push_back(entry);
  std::push_heap(queue_.begin(), queue_.end(), Compare{});
}

void PruningEngine::pop_heap() {
  std::pop_heap(queue_.begin(), queue_.end(), Compare{});
  queue_.pop_back();
}

void PruningEngine::begin_pass() {
  finish_pass();
  last_pruned_.clear();
}

std::optional<PruningEngine::Applied> PruningEngine::prune_step() {
  while (!queue_.empty()) {
    const QueueEntry top = queue_.front();
    pop_heap();
    SubState* state = find(top.sub);
    if (state == nullptr) {                                   // released
      if (dead_entries_ > 0) --dead_entries_;
      continue;
    }
    if (top.generation != state->sub->generation()) continue; // stale
    apply_pruning(*state->sub, state->best_path);
    if (!state->listed) {
      state->listed = true;
      last_pruned_.push_back({top.sub, state->performed});
    }
    ++performed_;
    ++state->performed;
    const PruneScores scores = state->best_scores;
    (void)push_best_candidate(*state);
    return Applied{top.sub, scores};
  }
  return std::nullopt;
}

void PruningEngine::finish_pass() {
  for (Pruned& pruned : last_pruned_) {
    SubState* state = find(pruned.sub);
    if (state == nullptr || !state->listed) continue;  // released, or finished
    state->listed = false;
    pruned.prunings = state->performed - pruned.prunings;
    if (matcher_ != nullptr && matcher_->contains(pruned.sub)) {
      matcher_->reindex(*state->sub);
      ++maintenance_.reindexes;
    }
  }
}

std::optional<PruningEngine::Applied> PruningEngine::prune_one() {
  begin_pass();
  auto applied = prune_step();
  finish_pass();
  return applied;
}

std::size_t PruningEngine::prune(std::size_t k) {
  begin_pass();
  std::size_t done = 0;
  while (done < k && prune_step()) ++done;
  finish_pass();
  return done;
}

std::size_t PruningEngine::prune_to_fraction(double fraction) {
  const auto target = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(total_possible_)));
  return prune(target > performed_ ? target - performed_ : 0);
}

std::optional<double> PruningEngine::next_primary_rating() {
  while (!queue_.empty()) {
    const QueueEntry& top = queue_.front();
    const SubState* state = find(top.sub);
    if (state == nullptr || top.generation != state->sub->generation()) {
      if (state == nullptr && dead_entries_ > 0) --dead_entries_;
      pop_heap();  // stale; discard and keep looking
      continue;
    }
    return top.key[0];
  }
  return std::nullopt;
}

std::size_t PruningEngine::prune_until(double budget) {
  // The queue key is oriented so smaller is better: Δ≈sel ascending,
  // -Δ≈mem and -Δ≈eff ascending. A budget on the raw dimension value
  // therefore translates to key[0] <= oriented budget.
  const double oriented_budget =
      config_.effective_order()[0] == PruneDimension::NetworkLoad ? budget : -budget;
  begin_pass();
  std::size_t done = 0;
  for (auto rating = next_primary_rating();
       rating.has_value() && *rating <= oriented_budget;
       rating = next_primary_rating()) {
    if (!prune_step()) break;
    ++done;
  }
  finish_pass();
  return done;
}

void PruningEngine::restore_accounting(SubscriptionId id, std::size_t capacity,
                                       std::size_t performed) {
  SubState* state = find(id);
  if (state == nullptr) {
    throw std::invalid_argument("pruning engine: restore of unregistered subscription");
  }
  // Unsigned wrap in the deltas is fine: the add below undoes it exactly.
  total_possible_ += capacity - state->capacity;
  performed_ += performed - state->performed;
  state->capacity = capacity;
  state->performed = performed;
}

PruningEngine::SubState* PruningEngine::find(SubscriptionId id) {
  const auto it = position_.find(id.value());
  return it == position_.end() ? nullptr : &states_[it->second];
}

const PruningEngine::SubState* PruningEngine::find(SubscriptionId id) const {
  const auto it = position_.find(id.value());
  return it == position_.end() ? nullptr : &states_[it->second];
}

std::optional<PruneScores> PruningEngine::peek_best(SubscriptionId id) const {
  const SubState* state = find(id);
  if (state == nullptr) return std::nullopt;
  std::size_t capacity = 0;
  const auto best = best_candidate(*state, capacity);
  if (!best) return std::nullopt;
  return best->scores;
}

const OriginalProfile* PruningEngine::original_profile(SubscriptionId id) const {
  const SubState* state = find(id);
  return state == nullptr ? nullptr : &state->original;
}

}  // namespace dbsp
