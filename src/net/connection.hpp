#pragma once

/// \file
/// Connection: one dbspd protocol connection as a state machine without a
/// socket. Its owner feeds it received bytes (receive), runs its complete
/// frames against the PubSub one at a time (dispatch_next), and sends what
/// it queued (out). Replies and notify frames share that one write queue.
/// A connection reports when it wants closing once the queue drains (after
/// a protocol error) and when a notify would overflow the queue (a slow
/// consumer). The owner disconnects a slow consumer only after the publish
/// has returned, because releasing its subscriptions re-enters the facade.
///
/// The connections of one server share an Edge: the PubSub, the limits,
/// the NetStats counters, the subscription owners and the dirty list.
/// Everything here runs on one thread (the server's io thread, or a test).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/pubsub.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace dbsp::net {

/// The live NetStats counters: one relaxed atomic per kNetStatFields entry,
/// named by the NetStats member. One thread writes them; load() is safe
/// from any thread.
class NetStatCells {
 public:
  template <std::uint64_t NetStats::*M>
  void add(std::uint64_t n = 1) {
    cells_[kIndex<M>].fetch_add(n, std::memory_order_relaxed);
  }
  template <std::uint64_t NetStats::*M>
  void set(std::uint64_t v) {
    cells_[kIndex<M>].store(v, std::memory_order_relaxed);
  }
  template <std::uint64_t NetStats::*M>
  [[nodiscard]] std::uint64_t get() const {
    return cells_[kIndex<M>].load(std::memory_order_relaxed);
  }
  [[nodiscard]] NetStats load() const {
    NetStats s;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      s.*kNetStatFields[i].member = cells_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  template <std::uint64_t NetStats::*M>
  static constexpr std::size_t kIndex = [] {
    std::size_t i = 0;
    while (kNetStatFields[i].member != M) ++i;
    return i;
  }();

  std::array<std::atomic<std::uint64_t>, std::size(kNetStatFields)> cells_{};
};

class Connection;

/// What the connections of one server share. It must outlive them.
struct Edge {
  Edge(PubSub* pubsub_in, NetStatCells& stats_in)
      : pubsub(pubsub_in), stats(stats_in) {}
  Edge(const Edge&) = delete;  // connections hold its address
  Edge& operator=(const Edge&) = delete;

  PubSub* pubsub;  ///< null once shutdown has destroyed the PubSub
  NetStatCells& stats;
  obs::MetricsRegistry* registry = nullptr;  ///< null without metrics
  obs::FlightRecorder* recorder = nullptr;   ///< null without tracing
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A notify that would queue more than this marks its connection slow.
  std::size_t max_write_queue_bytes = 4u << 20;
  /// Live subscription id -> owning connection (adopt exclusivity).
  std::unordered_map<std::uint64_t, Connection*> owners;
  /// Connections a dispatch queued notify frames to (or marked slow), each
  /// once; the owner flushes or disconnects them after the dispatch.
  std::vector<Connection*> dirty;
  /// Collects the kServerDispatch span of a traced publish.
  obs::TraceBuilder server_trace;

  /// Refreshes the subscriptions gauge from the PubSub.
  void sync_subscriptions() {
    stats.set<&NetStats::subscriptions>(pubsub ? pubsub->subscription_count() : 0);
  }
};

class Connection {
 public:
  /// `id` names the connection in logs; the server passes its fd.
  Connection(Edge& edge, int id);
  /// Releases this connection's subscriptions: durably while the PubSub
  /// lives, as inert no-ops once shutdown has destroyed it.
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Buffers received stream bytes; frame boundaries need not align.
  void receive(std::span<const std::uint8_t> bytes);
  /// Dispatches the next complete frame. False when no frame is complete
  /// or the connection no longer reads.
  bool dispatch_next();
  /// Completes the traced notifications whose bytes out() has now sent,
  /// recording their queue_wait and socket_write spans.
  void on_sent(std::chrono::steady_clock::time_point flush_start);
  /// Stops dispatching (a graceful drain): queued bytes still go out.
  void stop_reading() { stopped_ = true; }
  /// The owner took this connection off Edge::dirty.
  void clear_dirty() { dirty_ = false; }

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] OutBuffer& out() { return out_; }
  [[nodiscard]] bool reading() const { return !stopped_ && !closing_ && !slow_; }
  /// True after a protocol error: close once out() has drained.
  [[nodiscard]] bool close_after_flush() const { return closing_; }
  /// True once a notify would have overflowed the write queue.
  [[nodiscard]] bool slow() const { return slow_; }

 private:
  /// One traced notify frame in the write queue; it completes once
  /// out().total_sent() reaches `end_bytes`.
  struct DeliveryMarker {
    std::uint64_t end_bytes = 0;
    obs::TraceContext trace{};
    std::uint64_t frame_bytes = 0;
    std::uint64_t enqueue_unix_us = 0;
    std::chrono::steady_clock::time_point enqueue_steady{};
  };

  void dispatch(std::span<const std::uint8_t> body);
  void handle(MsgType type, WireReader& r);
  void publish(const Event& event, const obs::TraceContext& ctx);
  /// The subscribe/adopt tail: own the handle, reply with its id.
  void own(Result<SubscriptionHandle> handle, MsgType reply);
  void on_notify(const Notification& n);
  void queue(std::span<const std::uint8_t> frame);
  void status_error(const Status& status);
  void protocol_error(const std::string& message);
  void mark_dirty();

  Edge& edge_;
  int id_;
  FrameAssembler assembler_;
  OutBuffer out_;
  std::unordered_map<std::uint64_t, SubscriptionHandle> subs_;
  std::deque<DeliveryMarker> deliveries_;
  bool stopped_ = false;
  bool closing_ = false;
  bool slow_ = false;
  bool dirty_ = false;
};

}  // namespace dbsp::net
