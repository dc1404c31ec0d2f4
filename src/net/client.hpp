#pragma once

/// \file
/// DbspClient: the blocking client side of the dbspd protocol, used by
/// dbsp-cli, the socket-mode scenario runner, and the net test suite. One
/// client owns one TCP connection. connect() performs the kHello
/// handshake and learns the *server's* Schema, so DSL filters and events
/// are built against the authoritative event domain without local
/// configuration.
///
/// Requests are answered in order; kNotify pushes may interleave with any
/// reply and are buffered internally — drain them with
/// next_notification(). A kError reply surfaces as the request's Status
/// (application errors leave the connection usable; after a protocol
/// error or an io error the connection is dead and every later call
/// reports kUnavailable).
///
/// Thread safety: none. One DbspClient belongs to one thread.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/exposition.hpp"
#include "subscription/node.hpp"

namespace dbsp::net {

class DbspClient {
 public:
  /// Connects and handshakes (kHello -> schema). kUnavailable on refused /
  /// timed-out connects, kIoError on socket failures.
  [[nodiscard]] static Result<DbspClient> connect(const std::string& host,
                                                  std::uint16_t port,
                                                  int timeout_ms = 5000);

  DbspClient(DbspClient&&) noexcept = default;
  DbspClient& operator=(DbspClient&&) noexcept = default;
  DbspClient(const DbspClient&) = delete;
  DbspClient& operator=(const DbspClient&) = delete;
  ~DbspClient() = default;

  /// The server's schema, learned during the handshake.
  [[nodiscard]] const Schema& schema() const { return schema_; }
  /// An EventBuilder over the server's schema.
  [[nodiscard]] EventBuilder event() const { return EventBuilder(schema_); }

  [[nodiscard]] bool connected() const { return sock_.valid(); }
  /// Closes the connection now (the server releases this connection's
  /// subscriptions durably — a *clean* goodbye, unlike a daemon kill).
  void close() { sock_.close(); }

  // --- Verbs (each is one request/reply round trip) --------------------------

  /// Registers a filter tree; returns the server-assigned subscription id.
  [[nodiscard]] Result<std::uint64_t> subscribe(const Node& tree);
  /// Registers DSL text, parsed locally against the server's schema.
  [[nodiscard]] Result<std::uint64_t> subscribe(std::string_view dsl_text);
  [[nodiscard]] Status unsubscribe(std::uint64_t id);
  /// Re-claims a recovered registration after a daemon restart.
  [[nodiscard]] Result<std::uint64_t> adopt(std::uint64_t id);
  /// Publishes one event; returns the matched-subscription count.
  [[nodiscard]] Result<std::uint64_t> publish(const Event& event);
  /// Publishes one event under `context` (an inactive context starts a
  /// fresh head-sampled trace when a recorder is attached). The request
  /// round trip is recorded as a client_request span, and the context
  /// rides the wire so the server's spans share the trace id.
  [[nodiscard]] Result<std::uint64_t> publish(const Event& event,
                                              obs::TraceContext context);
  /// Publishes a batch; returns the total matched count.
  [[nodiscard]] Result<std::uint64_t> publish_batch(std::span<const Event> events);
  /// Round trip with an echo token (returns the server's echo).
  [[nodiscard]] Result<std::uint64_t> ping(std::uint64_t token);
  [[nodiscard]] Result<NetStats> stats();
  /// The server's full metrics scrape (kMetrics verb), renderable with
  /// obs::to_json / obs::to_prometheus. Empty when the server runs with
  /// metrics disabled.
  [[nodiscard]] Result<obs::MetricsSnapshot> metrics();
  /// The server's flight-recorder snapshot (kTraces verb). Empty when the
  /// server runs with tracing disabled.
  [[nodiscard]] Result<WireTraces> traces();

  // --- Client-side observability ---------------------------------------------

  /// Attaches a registry for client-side series: dbsp_e2e_latency_us, the
  /// publish-to-receipt latency histogram recorded when a notification
  /// carries the server's publish wall clock (same-host clocks assumed).
  void attach_metrics(std::shared_ptr<obs::MetricsRegistry> registry);
  /// Attaches a recorder for client_request trace entries (and head
  /// sampling of fresh publish(event, {}) contexts).
  void attach_trace_recorder(std::shared_ptr<obs::FlightRecorder> recorder);
  [[nodiscard]] const std::shared_ptr<obs::FlightRecorder>& trace_recorder()
      const {
    return recorder_;
  }

  // --- Notifications ----------------------------------------------------------

  /// The next buffered or arriving notification; nullopt on timeout.
  /// timeout_ms < 0 blocks until a notification or an error; errors (peer
  /// closed, protocol damage) surface as the Result's Status.
  [[nodiscard]] Result<std::optional<NetNotification>> next_notification(
      int timeout_ms);

 private:
  DbspClient(Socket sock, std::size_t max_frame)
      : sock_(std::move(sock)), assembler_(max_frame) {}

  /// Sends `frame`, blocks for the matching reply type (buffering any
  /// kNotify frames that arrive first) and decodes its whole payload with
  /// `decode`. kError replies become the Status.
  template <class T, class Decode>
  [[nodiscard]] Result<T> request(std::span<const std::uint8_t> frame,
                                  MsgType expected_reply, Decode decode);
  /// Reads whole frames until `stop_type` (or kError) arrives and returns
  /// its payload; kNotify frames are buffered along the way, and a
  /// kNotify stop returns once one is. nullopt when `timeout_ms` passes.
  [[nodiscard]] Result<std::optional<std::vector<std::uint8_t>>> read_until(
      MsgType stop_type, int timeout_ms);
  [[nodiscard]] Result<std::uint64_t> u64_request(
      std::span<const std::uint8_t> frame, MsgType expected_reply);
  [[nodiscard]] Status fail(Status status);
  /// Decodes one kNotify payload (shared by read_until and
  /// next_notification); records dbsp_e2e_latency_us when attached.
  [[nodiscard]] NetNotification decode_notify(WireReader& r);

  Socket sock_;
  FrameAssembler assembler_;
  Schema schema_;
  std::deque<NetNotification> notifications_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Histogram* e2e_latency_us_ = nullptr;
  std::shared_ptr<obs::FlightRecorder> recorder_;
  obs::TraceBuilder trace_builder_;
};

}  // namespace dbsp::net
