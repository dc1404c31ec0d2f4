#pragma once

#include <memory>
#include <vector>

#include "broker/broker.hpp"
#include "broker/simnet.hpp"
#include "event/schema.hpp"

namespace dbsp {

/// An acyclic broker overlay driven to quiescence after every external
/// stimulus (subscribe/publish) — the synchronous simulation mode used by
/// the distributed experiments. The line topology of the paper's §4 is the
/// default; arbitrary acyclic topologies are supported.
class Overlay {
 public:
  /// Edges as (a, b) broker-index pairs. Must form a forest (checked).
  using Topology = std::vector<std::pair<std::size_t, std::size_t>>;

  /// B0 - B1 - ... - B(n-1), the paper's 5-broker line for n = 5.
  [[nodiscard]] static Topology line(std::size_t brokers);
  /// One center connected to all others.
  [[nodiscard]] static Topology star(std::size_t brokers);

  /// `engine_options` configures every broker's matching engine
  /// (default: auto worker count from DBSP_SHARDS / hardware concurrency).
  Overlay(const Schema& schema, std::size_t brokers, const Topology& topology,
          ShardedEngineOptions engine_options = {});

  /// Switches every broker to aggregated summary routing (src/agg/):
  /// subscriptions stay at their home broker, only subgroup summaries are
  /// flooded, and events travel along admitting summaries. Must run before
  /// any subscription enters the overlay (throws std::logic_error
  /// otherwise, from the first non-empty broker).
  void enable_aggregation(agg::AggregatorOptions options = {});

  /// Registers a client subscription at `at` and floods it through the
  /// overlay (subscription forwarding) until quiescence.
  void subscribe(BrokerId at, ClientId client, SubscriptionId id,
                 std::unique_ptr<Node> tree);

  /// Cancels a subscription at its home broker and floods the
  /// unsubscription until quiescence.
  void unsubscribe(BrokerId at, SubscriptionId id);

  /// Publishes an event at `at` and routes it until quiescence. Returns the
  /// event's global sequence number.
  std::uint64_t publish(BrokerId at, const Event& event);

  [[nodiscard]] Broker& broker(BrokerId id) { return *brokers_.at(id.value()); }
  [[nodiscard]] const Broker& broker(BrokerId id) const { return *brokers_.at(id.value()); }
  [[nodiscard]] std::size_t broker_count() const { return brokers_.size(); }
  [[nodiscard]] SimulatedNetwork& network() { return net_; }
  [[nodiscard]] const SimulatedNetwork& network() const { return net_; }

  // --- Aggregated metrics --------------------------------------------------
  [[nodiscard]] std::uint64_t total_notifications() const;
  /// Sum of per-broker CPU filtering seconds.
  [[nodiscard]] double total_filter_seconds() const;
  /// Remote predicate/subscription associations over all brokers.
  [[nodiscard]] std::size_t total_remote_associations() const;
  void reset_metrics();
  void set_record_notifications(bool on);

 private:
  /// Delivers in-flight messages until the network is idle.
  void pump();

  SimulatedNetwork net_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::uint64_t next_event_seq_ = 0;
};

}  // namespace dbsp
