#include "broker/broker.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/pruning_set.hpp"

namespace dbsp {

Broker::Broker(BrokerId id, const Schema& schema, SimulatedNetwork& net,
               ShardedEngineOptions engine_options)
    : id_(id), net_(&net), schema_(&schema), engine_(schema, engine_options) {}

Broker::~Broker() = default;

void Broker::subscribe_local(SubscriptionId id, ClientId client,
                             std::unique_ptr<Node> tree) {
  if (aggregator_ != nullptr) {
    // Aggregated routing: the tree stays local; only the subgroup
    // summaries it changed are advertised.
    Subscription& sub = table_.add_local(id, client, std::move(tree));
    engine_.add(sub);
    aggregator_->add(sub);
    advertise_changes();
    return;
  }
  std::shared_ptr<const Node> wire_copy(tree->clone().release());
  Subscription& sub = table_.add_local(id, client, std::move(tree));
  engine_.add(sub);
  forward_subscription(BrokerId{}, id, wire_copy);
}

void Broker::forward_subscription(BrokerId except, SubscriptionId id,
                                  const std::shared_ptr<const Node>& tree) {
  for (const BrokerId neighbor : net_->neighbors(id_)) {
    if (neighbor == except) continue;
    Message m;
    m.type = Message::Type::Subscribe;
    m.sub_id = id;
    m.sub_tree = tree;
    net_->send(id_, neighbor, std::move(m));
  }
}

void Broker::unsubscribe_local(SubscriptionId id) {
  const RoutingTable::Entry* existing = table_.find(id);
  if (existing == nullptr || !existing->local) {
    throw std::invalid_argument("broker: unsubscribe of unknown or non-local subscription");
  }
  // Pruning set first (local entries are never tracked, so this is a
  // no-op here, but keeps the release-before-engine-removal invariant),
  // then engine: its removal reads the Subscription the table entry owns.
  if (owned_pruning_ != nullptr) owned_pruning_->unregister_subscription(id);
  engine_.remove(id);
  if (aggregator_ != nullptr) aggregator_->remove(id);
  table_.remove(id);
  if (aggregator_ != nullptr) {
    // No tree was ever flooded, so there is nothing to unsubscribe
    // remotely — only the changed subgroup summaries (possibly a retract).
    advertise_changes();
    return;
  }
  Message m;
  m.type = Message::Type::Unsubscribe;
  m.sub_id = id;
  for (const BrokerId neighbor : net_->neighbors(id_)) {
    net_->send(id_, neighbor, m);
  }
}

void Broker::publish_local(const Event& event, std::uint64_t seq) {
  route_event(BrokerId{}, event, seq);
}

void Broker::handle(BrokerId from, const Message& message) {
  switch (message.type) {
    case Message::Type::Event:
      route_event(from, message.event, message.event_seq);
      break;
    case Message::Type::Subscribe: {
      Subscription& sub =
          table_.add_remote(message.sub_id, from, message.sub_tree->clone());
      engine_.add(sub);
      if (owned_pruning_ != nullptr) owned_pruning_->add(sub);  // incremental admission
      forward_subscription(from, message.sub_id, message.sub_tree);
      break;
    }
    case Message::Type::Unsubscribe: {
      auto entry = table_.remove(message.sub_id);
      if (entry) {
        if (owned_pruning_ != nullptr) {
          owned_pruning_->unregister_subscription(message.sub_id);
        }
        engine_.remove(message.sub_id);
        Message m;
        m.type = Message::Type::Unsubscribe;
        m.sub_id = message.sub_id;
        for (const BrokerId neighbor : net_->neighbors(id_)) {
          if (neighbor != from) net_->send(id_, neighbor, m);
        }
      }
      break;
    }
    case Message::Type::Summary: {
      // Remember the summary under the neighbor it arrived through (the
      // next hop toward its origin) and flood it onward; the overlay is
      // acyclic, so propagation terminates at the leaves. The origin only
      // advertises actual changes, so no re-diffing is needed here.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(message.origin.value()) << 32) |
          message.subgroup;
      auto& learned = neighbor_summaries_[from.value()];
      if (message.summary == nullptr) {
        learned.erase(key);
      } else {
        learned.insert_or_assign(key, message.summary);
      }
      send_summary(from, message.origin, message.subgroup, message.summary);
      break;
    }
  }
}

agg::SubscriptionAggregator& Broker::enable_aggregation(agg::AggregatorOptions options) {
  if (table_.size() != 0) {
    throw std::logic_error("broker: enable_aggregation on a non-empty broker");
  }
  aggregator_ = std::make_unique<agg::SubscriptionAggregator>(*schema_, options);
  return *aggregator_;
}

void Broker::advertise_changes() {
  const std::size_t slots =
      std::max(aggregator_->subgroup_slots(), advertised_.size());
  if (advertised_.size() < slots) advertised_.resize(slots);
  for (std::size_t g = 0; g < slots; ++g) {
    const std::uint32_t slot = static_cast<std::uint32_t>(g);
    const agg::SummarySet* current = aggregator_->subgroup_summary(g);
    if (current == nullptr) {
      if (advertised_[g] != nullptr) {  // emptied: retract
        advertised_[g] = nullptr;
        send_summary(BrokerId{}, id_, slot, nullptr);
      }
      continue;
    }
    if (advertised_[g] != nullptr && advertised_[g]->equals(*current)) continue;
    auto copy = std::make_shared<const agg::SummarySet>(*current);
    advertised_[g] = copy;
    send_summary(BrokerId{}, id_, slot, copy);
  }
}

void Broker::send_summary(BrokerId except, BrokerId origin, std::uint32_t subgroup,
                          const std::shared_ptr<const agg::SummarySet>& summary) {
  for (const BrokerId neighbor : net_->neighbors(id_)) {
    if (neighbor == except) continue;
    Message m;
    m.type = Message::Type::Summary;
    m.origin = origin;
    m.subgroup = subgroup;
    m.summary = summary;
    net_->send(id_, neighbor, std::move(m));
  }
}

void Broker::route_event(BrokerId from, const Event& event, std::uint64_t seq) {
  scratch_matches_.clear();
  scratch_targets_.clear();

  filter_time_.start();
  engine_.match(event, scratch_matches_);
  filter_time_.stop();

  for (const SubscriptionId sid : scratch_matches_) {
    const RoutingTable::Entry* entry = table_.find(sid);
    if (entry == nullptr) continue;
    if (entry->local) {
      ++notifications_;
      if (record_notifications_) notification_log_.emplace_back(sid, seq);
    } else if (entry->from != from) {
      // Forward toward the subscriber's broker, once per neighbor.
      if (std::find(scratch_targets_.begin(), scratch_targets_.end(), entry->from) ==
          scratch_targets_.end()) {
        scratch_targets_.push_back(entry->from);
      }
    }
  }
  if (aggregator_ != nullptr) {
    // Aggregated forwarding: all table entries are local, so the loop
    // above produced only notifications; transit targets come from the
    // neighbor summaries instead — forward once toward every neighbor
    // through which some admitting subgroup summary was learned.
    for (const auto& [neighbor_raw, learned] : neighbor_summaries_) {
      const BrokerId neighbor(neighbor_raw);
      if (neighbor == from) continue;
      for (const auto& [key, summary] : learned) {
        if (summary->admits(event)) {
          scratch_targets_.push_back(neighbor);
          break;
        }
      }
    }
  }
  for (const BrokerId target : scratch_targets_) {
    Message m;
    m.type = Message::Type::Event;
    m.event = event;
    m.event_seq = seq;
    net_->send(id_, target, std::move(m));
  }
}

ShardedPruningSet& Broker::enable_pruning(const SelectivityEstimator& estimator,
                                          const PruneEngineConfig& config) {
  // The set keeps these pointers; every removal path releases its entry
  // from the set before the table drops the Subscription.
  std::vector<Subscription*> remote;
  table_.for_each([&](RoutingTable::Entry& e) {
    if (!e.local) remote.push_back(e.sub.get());
  });
  // Release the old set first: its destructor unbinds the index's leaf
  // estimate, which must not undo the new set's binding.
  owned_pruning_.reset();
  owned_pruning_ =
      std::make_unique<ShardedPruningSet>(engine_, estimator, config, remote);
  return *owned_pruning_;
}

std::size_t Broker::remote_association_count() const {
  std::size_t total = 0;
  table_.for_each([&](const RoutingTable::Entry& e) {
    if (!e.local) total += engine_.associations_of(e.sub->id());
  });
  return total;
}

void Broker::reset_metrics() {
  filter_time_.reset();
  notifications_ = 0;
  notification_log_.clear();
  engine_.reset_counters();
  if (aggregator_ != nullptr) aggregator_->reset_counters();
}

}  // namespace dbsp
