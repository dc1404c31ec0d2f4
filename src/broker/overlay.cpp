#include "broker/overlay.hpp"

#include <numeric>
#include <stdexcept>

namespace dbsp {

Overlay::Topology Overlay::line(std::size_t brokers) {
  Topology t;
  for (std::size_t i = 0; i + 1 < brokers; ++i) t.emplace_back(i, i + 1);
  return t;
}

Overlay::Topology Overlay::star(std::size_t brokers) {
  Topology t;
  for (std::size_t i = 1; i < brokers; ++i) t.emplace_back(0, i);
  return t;
}

Overlay::Overlay(const Schema& schema, std::size_t brokers, const Topology& topology,
                 ShardedEngineOptions engine_options)
    : net_(brokers) {
  if (brokers == 0) throw std::invalid_argument("overlay: no brokers");
  // A forest on n nodes has fewer than n edges; with connectivity implied
  // by use this rejects cycles (subscription flooding would live-lock).
  if (topology.size() >= brokers) {
    throw std::invalid_argument("overlay: topology has a cycle");
  }
  brokers_.reserve(brokers);
  for (std::size_t i = 0; i < brokers; ++i) {
    brokers_.push_back(std::make_unique<Broker>(
        BrokerId(static_cast<BrokerId::value_type>(i)), schema, net_, engine_options));
  }
  for (const auto& [a, b] : topology) {
    net_.connect(BrokerId(static_cast<BrokerId::value_type>(a)),
                 BrokerId(static_cast<BrokerId::value_type>(b)));
  }
}

void Overlay::enable_aggregation(agg::AggregatorOptions options) {
  for (auto& b : brokers_) b->enable_aggregation(options);
}

void Overlay::subscribe(BrokerId at, ClientId client, SubscriptionId id,
                        std::unique_ptr<Node> tree) {
  broker(at).subscribe_local(id, client, std::move(tree));
  pump();
}

void Overlay::unsubscribe(BrokerId at, SubscriptionId id) {
  broker(at).unsubscribe_local(id);
  pump();
}

std::uint64_t Overlay::publish(BrokerId at, const Event& event) {
  const std::uint64_t seq = next_event_seq_++;
  broker(at).publish_local(event, seq);
  pump();
  return seq;
}

void Overlay::pump() {
  while (auto delivery = net_.pop()) {
    broker(delivery->to).handle(delivery->from, delivery->message);
  }
}

std::uint64_t Overlay::total_notifications() const {
  std::uint64_t total = 0;
  for (const auto& b : brokers_) total += b->notifications_delivered();
  return total;
}

double Overlay::total_filter_seconds() const {
  double total = 0.0;
  for (const auto& b : brokers_) total += b->filter_seconds();
  return total;
}

std::size_t Overlay::total_remote_associations() const {
  std::size_t total = 0;
  for (const auto& b : brokers_) total += b->remote_association_count();
  return total;
}

void Overlay::reset_metrics() {
  for (auto& b : brokers_) b->reset_metrics();
  net_.reset_stats();
}

void Overlay::set_record_notifications(bool on) {
  for (auto& b : brokers_) b->set_record_notifications(on);
}

}  // namespace dbsp
