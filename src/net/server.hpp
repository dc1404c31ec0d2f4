#pragma once

/// \file
/// NetServer: the async TCP broker edge behind dbspd. One epoll-driven io
/// thread owns every socket and routes its readiness to one of two
/// socket-free parts: a Connection (net/connection.hpp) per protocol
/// connection, which dispatches frames into the owned dbsp::PubSub and
/// queues replies and notifications, and AdminHttp (net/admin_http.hpp)
/// for the metrics port. Both kinds send through the one non-blocking
/// write path (OutBuffer + send_pending, net/socket.hpp).
///
/// Threading model (see docs/ARCHITECTURE.md "Network edge"): the io
/// thread is the only caller of PubSub entry points during normal
/// operation, so notification callbacks, which run under the facade lock
/// on the publishing thread, only append bytes to connection write queues;
/// they never re-enter the facade (the non-recursive-mutex contract).
/// Slow-consumer disconnects wait until the publish that detected them
/// returns, because releasing a SubscriptionHandle re-enters the facade.
/// Cross-thread surface: stats() reads atomics only, stop() and
/// request_stop_async() signal the io thread through an eventfd.
///
/// Lifecycle: start() takes the PubSub by value: the server is the broker
/// process. stop(drain=true) is the graceful path (stop accepting, stop
/// reading, flush every write queue, checkpoint a durable store);
/// stop(drain=false) is the crash-like kill (nothing flushed, nothing
/// checkpointed: every acknowledged durable operation is already in the
/// WAL, so a reopen via PubSub::open() is warm and clients re-adopt their
/// subscription ids). In both paths the PubSub is destroyed *before* the
/// connection handles, so shutdown never unsubscribes anyone durably.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "api/pubsub.hpp"
#include "api/status.hpp"
#include "common/mutex.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"

namespace dbsp::net {

class NetStatCells;

/// Construction knobs of the network edge (dbspd sets them from flags).
/// The connection cap (4096; accepts beyond it are closed and counted in
/// connections_rejected) and the listen backlog (512) are fixed.
struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (read back with port())
  /// FrameAssembler limit per connection; oversized frames are answered
  /// with a protocol-error frame and the connection is closed.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bounded per-connection write queue: a consumer whose pending bytes
  /// would exceed this is disconnected (slow_consumer_disconnects) instead
  /// of growing server memory without bound.
  std::size_t max_write_queue_bytes = 4u << 20;
  /// stop(drain=true) flushes write queues for at most this long.
  int drain_timeout_ms = 5000;
  /// Port of the HTTP GET /metrics endpoint (Prometheus text exposition),
  /// served from the same epoll loop on `host`. -1 disables it; 0 binds a
  /// kernel-assigned port (read back with metrics_port()). The endpoint
  /// keeps serving while a graceful drain is in progress, and also answers
  /// GET /traces (flight-recorder JSON), GET /healthz, and GET /buildinfo.
  int metrics_port = -1;
  /// Where request_trace_dump_async() (dbspd's SIGUSR1 handler) writes the
  /// flight-recorder JSON.
  std::string trace_dump_path = "dbsp_traces.json";
};

/// The daemon core. Construct via start(); non-movable (the io thread
/// holds `this`).
class NetServer {
 public:
  /// Binds, spawns the io thread, and takes ownership of the PubSub.
  /// kIoError/kInvalidArgument on bind/listen failures.
  [[nodiscard]] static Result<std::unique_ptr<NetServer>> start(
      PubSub pubsub, NetServerOptions options = {});

  /// Graceful stop (drain) unless already stopped.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves option port 0 to the real ephemeral port).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The bound HTTP metrics port; 0 when the endpoint is disabled.
  [[nodiscard]] std::uint16_t metrics_port() const { return metrics_port_; }

  /// The options the server was started with.
  [[nodiscard]] const NetServerOptions& options() const { return options_; }

  /// Counter snapshot; safe from any thread, lock-free.
  [[nodiscard]] NetStats stats() const;

  /// Requests shutdown and joins the io thread. Idempotent and
  /// thread-safe; the first caller's drain flag wins.
  void stop(bool drain);

  /// Async-signal-safe stop request (an eventfd write) — the SIGTERM path
  /// of dbspd. Pair with wait() from a normal thread.
  void request_stop_async(bool drain) noexcept;

  /// Async-signal-safe trace-dump request (dbspd's SIGUSR1 path): the io
  /// thread writes the flight-recorder JSON to options().trace_dump_path.
  /// A no-op when the owned PubSub runs without tracing.
  void request_trace_dump_async() noexcept;

  /// Blocks until the io thread has exited (after some stop request).
  void wait();

  /// True until a stop request has been carried out.
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// In-process introspection of the owned PubSub (scenario runner, tests).
  /// The PubSub itself is thread-safe; this pointer is valid only while
  /// running() — stop() destroys the instance. Returns nullptr afterwards.
  [[nodiscard]] PubSub* pubsub();

 private:
  struct Impl;

  NetServer(PubSub pubsub, NetServerOptions options);

  [[nodiscard]] Status init();
  void register_metrics_hook();
  void run_loop();
  /// io thread: writes the flight-recorder JSON to options_.trace_dump_path.
  void write_trace_dump();

  NetServerOptions options_;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
  std::unique_ptr<Impl> impl_;
  /// The owned PubSub's registry (null when its metrics are disabled) —
  /// kept so the metrics verb and HTTP endpoint scrape without touching
  /// the facade, even while it is being drained.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  /// The owned PubSub's flight recorder (null when tracing is disabled);
  /// same rationale as registry_ — the traces verb, GET /traces, and the
  /// delivery spans all go through this pointer.
  std::shared_ptr<obs::FlightRecorder> recorder_;
  std::thread thread_;

  std::atomic<bool> running_{false};
  std::atomic<int> stop_request_{0};  ///< 0 none, 1 kill, 2 drain
  std::atomic<bool> trace_dump_requested_{false};

  Mutex join_mutex_;

  /// The NetStats counters (io thread writes, stats() reads). Shared so
  /// the registry's scrape hook holds a weak reference: a scrape that
  /// outlives the server (the caller kept the registry) then no-ops.
  std::shared_ptr<NetStatCells> cells_;
};

}  // namespace dbsp::net
