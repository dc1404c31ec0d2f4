#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "agg/aggregator.hpp"
#include "common/ids.hpp"
#include "common/timer.hpp"
#include "broker/simnet.hpp"
#include "core/sharded_engine.hpp"
#include "obs/flight.hpp"
#include "routing/routing_table.hpp"

namespace dbsp {

class ShardedPruningSet;
class WireWriter;
class WireReader;

/// A content-based broker: routing table + sharded counting-matcher engine
/// + forwarding logic over the simulated network (subscription-forwarding
/// routing on an acyclic overlay, §2.1).
///
/// The filter table is a ShardedEngine over counting matchers; the shard
/// count comes from `engine_options` (default: DBSP_SHARDS / hardware
/// concurrency). Callers running pruning over this broker's entries call
/// enable_pruning(), which builds and owns a ShardedPruningSet over
/// engine(); the broker keeps the per-shard pruning state in sync under
/// churn for as long as it is enabled.
///
/// Notifications are decided by *local* entries, which stay unpruned, so
/// end-to-end delivery is exact regardless of how remote entries were
/// pruned; pruning remote entries can only add transit traffic that the
/// next broker post-filters.
class Broker {
 public:
  Broker(BrokerId id, const Schema& schema, SimulatedNetwork& net,
         ShardedEngineOptions engine_options = {});
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Registers a subscription of a directly connected client and forwards
  /// it to all neighbors.
  void subscribe_local(SubscriptionId id, ClientId client, std::unique_ptr<Node> tree);

  /// Cancels a local client's subscription and floods the unsubscription.
  /// No specialized handling vs un-optimized routing is needed (§2.2):
  /// every broker simply drops its (possibly pruned) entry, and an
  /// attached pruning set is released automatically.
  void unsubscribe_local(SubscriptionId id);

  /// Publishes an event received from a directly connected publisher.
  void publish_local(const Event& event, std::uint64_t seq);

  /// Publishes under `context`: an inactive context starts a fresh
  /// head-sampled trace when a recorder is attached, an active one joins
  /// the caller's trace. Each broker the event crosses records one
  /// overlay_hop entry (detail = broker id) into the shared recorder, all
  /// under the same trace id.
  void publish_local(const Event& event, std::uint64_t seq,
                     obs::TraceContext context);

  /// Delivers one network message to this broker.
  void handle(BrokerId from, const Message& message);

  /// Attaches (or detaches, with nullptr) a flight recorder shared by the
  /// overlay: route_event then records a per-hop trace entry whenever the
  /// event carries an active context. See Overlay::attach_trace_recorder.
  void attach_trace_recorder(std::shared_ptr<obs::FlightRecorder> recorder) {
    trace_recorder_ = std::move(recorder);
  }
  [[nodiscard]] const std::shared_ptr<obs::FlightRecorder>& trace_recorder()
      const {
    return trace_recorder_;
  }

  [[nodiscard]] BrokerId id() const { return id_; }
  [[nodiscard]] RoutingTable& table() { return table_; }
  [[nodiscard]] const RoutingTable& table() const { return table_; }
  /// The sharded filter engine holding this broker's (possibly pruned)
  /// routing entries.
  [[nodiscard]] ShardedEngine& engine() { return engine_; }
  [[nodiscard]] const ShardedEngine& engine() const { return engine_; }

  /// Ids of the remote (prunable) entries — the pruning engine's inputs.
  /// Stable under churn (plain values, nothing to dangle); resolve lazily
  /// through table().find() when the trees are needed.
  [[nodiscard]] std::vector<SubscriptionId> remote_subscription_ids() const;

  /// Builds a pruning set over this broker's current remote entries,
  /// attaches it, and *owns* it: while enabled, remote subscriptions
  /// arriving via the overlay are admitted and unsubscriptions released
  /// automatically — no manual sync, no dangling set pointer to detach.
  /// The estimator must outlive the broker (or a disable_pruning() call).
  /// Replaces any previously enabled set.
  ShardedPruningSet& enable_pruning(const SelectivityEstimator& estimator,
                                    const PruneEngineConfig& config);
  /// Drops the owned pruning set.
  void disable_pruning();

  /// The enabled pruning set, nullptr when none.
  [[nodiscard]] ShardedPruningSet* pruning() { return owned_pruning_.get(); }

  /// Predicate/subscription associations contributed by remote entries
  /// (the distributed memory metric, Fig. 1(f)).
  [[nodiscard]] std::size_t remote_association_count() const;

  // --- Aggregated routing --------------------------------------------------

  /// Switches this broker to aggregated summary routing: local
  /// subscriptions are clustered into subgroups (src/agg/) and only the
  /// bounded subgroup summaries are advertised to neighbors — no
  /// per-subscription tree ever leaves this broker. An event is forwarded
  /// toward a neighbor exactly when a summary learned through it admits the
  /// event (sound over-approximation), and delivered by exact local
  /// matching at the subscriber's broker, so end-to-end delivery stays
  /// oracle-exact while control traffic scales with subgroups instead of
  /// subscriptions. The broker feeds the aggregator itself
  /// (subscribe_local, unsubscribe_local, restore_table); the summaries
  /// only decide transit forwarding, while local notifications still come
  /// from engine(). Must be called on an empty broker (throws
  /// std::logic_error otherwise) and on every broker of the overlay before
  /// subscriptions flow (see Overlay::enable_aggregation). Pruning is
  /// moot in this mode: no remote trees exist to prune.
  agg::SubscriptionAggregator& enable_aggregation(agg::AggregatorOptions options = {});
  /// The local subgroup aggregator, nullptr when aggregation is off.
  [[nodiscard]] agg::SubscriptionAggregator* aggregation() { return aggregator_.get(); }

  // --- Warm restart --------------------------------------------------------

  /// Serializes the whole routing table — local and remote entries with
  /// their origins and *current* (possibly pruned) trees — in the
  /// routing/codec wire format, entries in ascending-id order. The bytes
  /// are what a warm restart needs: a replacement broker at the same
  /// overlay position restores them instead of re-flooding every
  /// subscription through the network.
  void save_table(WireWriter& out) const;

  /// Restores a table saved by save_table() into this broker: repopulates
  /// the routing table, the matcher engine and, when aggregation is on,
  /// the aggregator without sending a single message. The broker must be empty (throws std::logic_error otherwise)
  /// and pruning must not be enabled yet — enable_pruning() afterwards
  /// re-admits the restored remote entries. Throws WireError on truncated
  /// or malformed input, leaving the broker unusable only in the sense
  /// that partially restored entries remain (callers discard the broker).
  void restore_table(WireReader& in);

  // --- Metrics ------------------------------------------------------------
  [[nodiscard]] std::uint64_t notifications_delivered() const { return notifications_; }
  [[nodiscard]] std::uint64_t events_filtered() const { return events_filtered_; }
  /// CPU time spent matching events against the routing table.
  [[nodiscard]] double filter_seconds() const { return filter_time_.seconds(); }
  void reset_metrics();

  /// (subscription, event_seq) notification log for correctness checks;
  /// recorded only while `record_notifications` is set.
  void set_record_notifications(bool on) { record_notifications_ = on; }
  [[nodiscard]] const std::vector<std::pair<SubscriptionId, std::uint64_t>>&
  notification_log() const {
    return notification_log_;
  }

 private:
  /// Matches and forwards an event arriving from `from` (invalid id =
  /// local publisher). An active `trace` context wraps the hop in an
  /// overlay_hop span and re-parents the contexts of forwarded copies.
  void route_event(BrokerId from, const Event& event, std::uint64_t seq,
                   const obs::TraceContext& trace);
  void forward_subscription(BrokerId except, SubscriptionId id,
                            const std::shared_ptr<const Node>& tree);
  /// Diff-advertises every subgroup summary that changed (or vanished)
  /// since the last call — the aggregated-mode control traffic.
  void advertise_changes();
  void send_summary(BrokerId except, BrokerId origin, std::uint32_t subgroup,
                    const std::shared_ptr<const agg::SummarySet>& summary);

  BrokerId id_;
  SimulatedNetwork* net_;
  const Schema* schema_;
  RoutingTable table_;
  ShardedEngine engine_;
  /// Aggregated routing state (enable_aggregation). `advertised_` caches
  /// the last summary sent per subgroup slot (exact equals() diffing — a
  /// missed widening advertisement would cost deliveries downstream);
  /// `neighbor_summaries_` holds, per neighbor, the summaries learned
  /// through it keyed by (origin broker, subgroup slot).
  std::unique_ptr<agg::SubscriptionAggregator> aggregator_;
  std::vector<std::shared_ptr<const agg::SummarySet>> advertised_;
  std::unordered_map<
      BrokerId::value_type,
      std::unordered_map<std::uint64_t, std::shared_ptr<const agg::SummarySet>>>
      neighbor_summaries_;
  /// Set via enable_pruning().
  std::unique_ptr<ShardedPruningSet> owned_pruning_;

  /// Overlay tracing (attach_trace_recorder): the builder is reusable
  /// scratch — brokers are single-threaded under the overlay pump.
  std::shared_ptr<obs::FlightRecorder> trace_recorder_;
  obs::TraceBuilder trace_builder_;

  Stopwatch filter_time_;
  std::uint64_t notifications_ = 0;
  std::uint64_t events_filtered_ = 0;
  bool record_notifications_ = false;
  std::vector<std::pair<SubscriptionId, std::uint64_t>> notification_log_;
  std::vector<SubscriptionId> scratch_matches_;
  std::vector<BrokerId> scratch_targets_;
};

}  // namespace dbsp
