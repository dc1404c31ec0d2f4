#include "net/server.hpp"

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/admin_http.hpp"
#include "net/connection.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"

namespace dbsp::net {

namespace {

constexpr int kStopKill = 1;
constexpr int kStopDrain = 2;
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kListenBacklog = 512;
constexpr std::size_t kMaxConnections = 4096;
/// Scrapers are few and short-lived; cap them so they cannot crowd out the
/// protocol connections' fd budget.
constexpr std::size_t kMaxAdminConns = 64;

/// One accepted socket: a protocol Connection or an admin (HTTP) one.
struct Peer {
  explicit Peer(int fd) : sock(fd) {}

  Socket sock;
  std::unique_ptr<Connection> conn;
  std::unique_ptr<AdminConn> admin;
  std::uint64_t accepted = 0;  ///< accept order; eviction takes the oldest
  std::uint32_t interest = 0;  ///< current epoll mask

  [[nodiscard]] OutBuffer& out() { return conn ? conn->out() : admin->out; }
  [[nodiscard]] bool reading() const {
    return conn ? conn->reading() : !admin->responded;
  }
  [[nodiscard]] bool close_after_flush() const {
    return conn ? conn->close_after_flush() : admin->responded;
  }
};

}  // namespace

/// The io thread's side of the server: sockets, epoll and the peers. Its
/// methods are the socket glue around Connection and AdminHttp.
struct NetServer::Impl {
  Impl(PubSub pubsub_in, const NetServer& server)
      : pubsub(std::move(pubsub_in)),
        edge(&pubsub.value(), *server.cells_),
        admin_http(server.registry_.get(), server.recorder_.get(), *server.cells_) {
    edge.registry = server.registry_.get();
    edge.recorder = server.recorder_.get();
    edge.max_frame_bytes = server.options_.max_frame_bytes;
    edge.max_write_queue_bytes = server.options_.max_write_queue_bytes;
  }

  ~Impl() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  Status watch(int fd);
  void accept_all(int listener_fd, bool admin);
  void on_event(int fd, std::uint32_t mask);
  void on_readable(int fd, Peer& peer);
  void after_dispatch(const Connection& current);
  void flush(int fd, Peer& peer);
  void set_interest(int fd, Peer& peer);
  void disconnect_slow(int fd);
  void destroy(int fd);

  std::optional<PubSub> pubsub;
  Edge edge;  ///< outlives `peers`: connections reference it
  AdminHttp admin_http;
  Socket listener;
  Socket metrics_listener;  ///< invalid when the admin port is disabled
  int epoll_fd = -1;
  int wake_fd = -1;
  std::unordered_map<int, Peer> peers;
  std::size_t connections = 0;  ///< protocol peers
  std::size_t admin_conns = 0;
  std::uint64_t accepts = 0;
  std::vector<Connection*> dirty;  ///< after_dispatch's reused list
};

NetServer::NetServer(PubSub pubsub, NetServerOptions options)
    : options_(std::move(options)),
      registry_(pubsub.metrics_registry()),
      recorder_(pubsub.trace_recorder()),
      cells_(std::make_shared<NetStatCells>()) {
  impl_ = std::make_unique<Impl>(std::move(pubsub), *this);
}

Result<std::unique_ptr<NetServer>> NetServer::start(PubSub pubsub,
                                                    NetServerOptions options) {
  std::unique_ptr<NetServer> server(
      new NetServer(std::move(pubsub), std::move(options)));
  if (Status s = server->init(); !s.ok()) return s;
  server->running_.store(true, std::memory_order_release);
  server->thread_ = std::thread([raw = server.get()] { raw->run_loop(); });
  return server;
}

Status NetServer::Impl::watch(int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::error(ErrorCode::kIoError, "epoll_ctl");
  }
  return Status();
}

Status NetServer::init() {
  auto& impl = *impl_;
  if (options_.metrics_port > 65535) {
    return Status::error(ErrorCode::kInvalidArgument, "metrics_port is out of range");
  }
  // Binds, reads back the real port, and goes non-blocking.
  const auto listen_on = [&](std::uint16_t port, Socket& sock,
                             std::uint16_t& bound) -> Status {
    auto listening = tcp_listen(options_.host, port, kListenBacklog);
    if (!listening.ok()) return listening.status();
    auto local = local_port(listening.value().fd());
    if (!local.ok()) return local.status();
    bound = local.value();
    sock = std::move(listening).value();
    return set_nonblocking(sock.fd(), true);
  };
  if (Status s = listen_on(options_.port, impl.listener, port_); !s.ok()) return s;
  impl.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  impl.wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (impl.epoll_fd < 0 || impl.wake_fd < 0) {
    return Status::error(ErrorCode::kIoError,
                         std::string("epoll/eventfd: ") + std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
  }
  if (Status s = impl.watch(impl.listener.fd()); !s.ok()) return s;
  if (Status s = impl.watch(impl.wake_fd); !s.ok()) return s;
  if (options_.metrics_port >= 0) {
    if (Status s = listen_on(static_cast<std::uint16_t>(options_.metrics_port),
                             impl.metrics_listener, metrics_port_);
        !s.ok()) {
      return s;
    }
    if (Status s = impl.watch(impl.metrics_listener.fd()); !s.ok()) return s;
  }
  register_metrics_hook();
  impl.edge.sync_subscriptions();
  return Status();
}

void NetServer::register_metrics_hook() {
  if (registry_ == nullptr) return;
  // Series pointers are registry-stable; captured raw (the hook dies with
  // the registry, never after it). The cells go in through a weak_ptr so a
  // scrape racing server destruction no-ops. sync_to keeps the exported
  // counters monotone; levels are gauges.
  struct Series {
    obs::Counter* counter = nullptr;
    obs::Gauge* gauge = nullptr;
  };
  std::array<Series, std::size(kNetStatFields)> series;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const NetStatField& f = kNetStatFields[i];
    if (f.gauge) {
      series[i].gauge = &registry_->gauge(f.series);
    } else {
      series[i].counter = &registry_->counter(f.series);
    }
  }
  std::weak_ptr<NetStatCells> weak = cells_;
  registry_->add_hook([series, weak]() {
    const auto cells = weak.lock();
    if (cells == nullptr) return;
    const NetStats s = cells->load();
    for (std::size_t i = 0; i < series.size(); ++i) {
      const std::uint64_t v = s.*kNetStatFields[i].member;
      if (series[i].gauge != nullptr) {
        series[i].gauge->set(static_cast<double>(v));
      } else {
        series[i].counter->sync_to(v);
      }
    }
  });
}

NetServer::~NetServer() { stop(/*drain=*/true); }

void NetServer::request_stop_async(bool drain) noexcept {
  int expected = 0;
  // First request wins; a kill overrides a pending drain but not vice versa.
  const int desired = drain ? kStopDrain : kStopKill;
  if (!stop_request_.compare_exchange_strong(expected, desired,
                                             std::memory_order_acq_rel) &&
      desired == kStopKill) {
    stop_request_.store(kStopKill, std::memory_order_release);
  }
  const std::uint64_t one = 1;
  // write() is async-signal-safe; short writes cannot happen on an eventfd.
  [[maybe_unused]] const ssize_t rc = ::write(impl_->wake_fd, &one, sizeof one);
}

void NetServer::request_trace_dump_async() noexcept {
  trace_dump_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t rc = ::write(impl_->wake_fd, &one, sizeof one);
}

void NetServer::stop(bool drain) {
  request_stop_async(drain);
  wait();
}

void NetServer::wait() {
  MutexLock lock(join_mutex_);
  if (thread_.joinable()) thread_.join();
}

PubSub* NetServer::pubsub() {
  if (!running_.load(std::memory_order_acquire)) return nullptr;
  return impl_->pubsub ? &*impl_->pubsub : nullptr;
}

NetStats NetServer::stats() const { return cells_->load(); }

// --- io thread ---------------------------------------------------------------
// Everything below runs exclusively on the io thread.

void NetServer::write_trace_dump() {
  if (recorder_ == nullptr) {
    obs::LogEvent(obs::LogLevel::kWarn, "net",
                  "trace dump skipped: tracing disabled");
    return;
  }
  const std::string json = obs::traces_json(*recorder_);
  std::FILE* file = std::fopen(options_.trace_dump_path.c_str(), "w");
  if (file == nullptr) {
    obs::LogEvent(obs::LogLevel::kError, "net", "trace dump open failed")
        .kv("path", options_.trace_dump_path)
        .kv("errno", errno);
    return;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  obs::LogEvent(obs::LogLevel::kInfo, "net", "trace dump written")
      .kv("path", options_.trace_dump_path)
      .kv("bytes", static_cast<std::uint64_t>(written));
}

// The one accept loop, for both listeners. A protocol accept past the cap
// is closed and counted; an admin accept at its cap evicts the oldest
// admin peer whose request is still incomplete, so idle sockets cannot
// lock out scrapes.
void NetServer::Impl::accept_all(int listener_fd, bool admin) {
  while (true) {
    const int fd = ::accept4(listener_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient failure: stay up
    }
    Peer peer(fd);
    if (admin) {
      if (admin_conns >= kMaxAdminConns) {
        const Peer* oldest = nullptr;
        int oldest_fd = -1;
        for (const auto& [pfd, p] : peers) {
          if (p.admin && !p.admin->responded &&
              (oldest == nullptr || p.accepted < oldest->accepted)) {
            oldest = &p;
            oldest_fd = pfd;
          }
        }
        if (oldest == nullptr) continue;  // every one is mid-response
        destroy(oldest_fd);
      }
      peer.admin = std::make_unique<AdminConn>();
    } else {
      if (connections >= kMaxConnections) {
        edge.stats.add<&NetStats::connections_rejected>();
        continue;
      }
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      peer.conn = std::make_unique<Connection>(edge, fd);
    }
    if (!watch(fd).ok()) continue;  // the socket closes with `peer`
    peer.interest = EPOLLIN;
    peer.accepted = ++accepts;
    peers.emplace(fd, std::move(peer));
    if (admin) {
      ++admin_conns;
    } else {
      ++connections;
      edge.stats.add<&NetStats::connections_accepted>();
      edge.stats.set<&NetStats::connections>(connections);
    }
  }
}

void NetServer::Impl::on_event(int fd, std::uint32_t mask) {
  const auto it = peers.find(fd);
  if (it == peers.end()) return;
  if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
    destroy(fd);
  } else if ((mask & EPOLLIN) != 0) {
    on_readable(fd, it->second);
  } else if ((mask & EPOLLOUT) != 0) {
    flush(fd, it->second);
  }
}

// The one read loop: feeds what the socket holds to the peer's part, then
// flushes what it queued in reply.
void NetServer::Impl::on_readable(int fd, Peer& peer) {
  std::uint8_t chunk[kReadChunk];
  while (peer.reading()) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return destroy(fd);
    const auto size = static_cast<std::size_t>(n);
    if (peer.conn) {
      edge.stats.add<&NetStats::bytes_received>(size);
      peer.conn->receive(std::span<const std::uint8_t>(chunk, size));
      while (peer.conn->dispatch_next()) after_dispatch(*peer.conn);
    } else if (!admin_http.on_bytes(
                   *peer.admin,
                   std::string_view(reinterpret_cast<const char*>(chunk), size))) {
      return destroy(fd);
    }
    if (size < sizeof chunk) break;
  }
  if (peer.conn && peer.conn->slow()) return disconnect_slow(fd);
  flush(fd, peer);
}

// Sends the notify frames a dispatch queued toward other connections and
// disconnects the ones it found slow. The dispatching connection itself is
// flushed (or disconnected) by its read loop.
void NetServer::Impl::after_dispatch(const Connection& current) {
  dirty.swap(edge.dirty);
  for (Connection* conn : dirty) {
    conn->clear_dirty();
    if (conn == &current) continue;
    const int fd = conn->id();
    if (conn->slow()) {
      disconnect_slow(fd);
    } else {
      flush(fd, peers.at(fd));
    }
  }
  dirty.clear();
}

// The one write path: sends what the peer queued, closes a peer whose last
// bytes went out, and re-arms epoll.
void NetServer::Impl::flush(int fd, Peer& peer) {
  const auto flush_start = std::chrono::steady_clock::now();
  const auto sent = send_pending(fd, peer.out());
  if (!sent.ok()) return destroy(fd);
  if (peer.conn) {
    edge.stats.add<&NetStats::bytes_sent>(sent.value());
    peer.conn->on_sent(flush_start);
  }
  if (peer.out().pending() == 0 && peer.close_after_flush()) return destroy(fd);
  set_interest(fd, peer);
}

void NetServer::Impl::set_interest(int fd, Peer& peer) {
  std::uint32_t want = 0;
  if (peer.reading()) want |= EPOLLIN;
  if (peer.out().pending() > 0) want |= EPOLLOUT;
  if (want == peer.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = fd;
  (void)::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &ev);
  peer.interest = want;
}

void NetServer::Impl::disconnect_slow(int fd) {
  edge.stats.add<&NetStats::slow_consumer_disconnects>();
  static obs::LogRateLimit rate(/*max_per_sec=*/10);
  if (rate.allow()) {
    obs::LogEvent(obs::LogLevel::kWarn, "net", "slow consumer disconnected")
        .kv("fd", fd)
        .kv("max_write_queue_bytes",
            static_cast<std::uint64_t>(edge.max_write_queue_bytes))
        .kv("suppressed", rate.suppressed());
  }
  destroy(fd);
}

// Closes a peer. A Connection releases its subscriptions on destruction
// (never from inside a notification callback).
void NetServer::Impl::destroy(int fd) {
  const auto it = peers.find(fd);
  if (it == peers.end()) return;
  (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  if (it->second.conn) {
    --connections;
  } else {
    --admin_conns;
  }
  peers.erase(it);
  edge.stats.set<&NetStats::connections>(connections);
}

void NetServer::run_loop() {
  auto& impl = *impl_;
  bool stopping = false;
  bool drain = false;
  auto drain_deadline = std::chrono::steady_clock::time_point{};
  epoll_event events[256];
  while (true) {
    const int n = ::epoll_wait(impl.epoll_fd, events, 256, stopping ? 20 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; shut down hard
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == impl.wake_fd) {
        std::uint64_t drained = 0;  // the stop flag is checked below
        [[maybe_unused]] const ssize_t rc = ::read(fd, &drained, sizeof drained);
      } else if (fd == impl.listener.fd()) {
        if (!stopping) impl.accept_all(fd, /*admin=*/false);
      } else if (fd == impl.metrics_listener.fd()) {
        // Not gated on `stopping`: scrapes keep answering during a drain.
        impl.accept_all(fd, /*admin=*/true);
      } else {
        impl.on_event(fd, events[i].events);
      }
    }

    if (trace_dump_requested_.exchange(false, std::memory_order_acq_rel)) {
      write_trace_dump();
    }

    const int req = stop_request_.load(std::memory_order_acquire);
    if (!stopping && req != 0) {
      stopping = true;
      drain = req == kStopDrain;
      obs::LogEvent(obs::LogLevel::kInfo, "net", "stop requested")
          .kv("drain", drain)
          .kv("connections", static_cast<std::uint64_t>(impl.connections));
      cells_->set<&NetStats::draining>(1);
      (void)::epoll_ctl(impl.epoll_fd, EPOLL_CTL_DEL, impl.listener.fd(), nullptr);
      impl.listener.close();
      for (auto& [fd, peer] : impl.peers) {
        if (!peer.conn) continue;
        peer.conn->stop_reading();
        impl.set_interest(fd, peer);
      }
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
      if (!drain) break;
    }
    if (stopping) {
      // A kill request arriving mid-drain cuts the flush short. Admin
      // peers never hold a drain open.
      if (req == kStopKill) break;
      bool pending = false;
      for (auto& [fd, peer] : impl.peers) {
        pending = pending || (peer.conn && peer.out().pending() > 0);
      }
      if (!pending || std::chrono::steady_clock::now() >= drain_deadline) break;
    }
  }

  // Shutdown epilogue (still on the io thread): checkpoint on a drained
  // graceful stop, then destroy the PubSub *before* the connections so the
  // handle destructors are inert: a daemon shutdown must never durably
  // unsubscribe its clients.
  if (drain && impl.pubsub && impl.pubsub->durable()) {
    (void)impl.pubsub->checkpoint();
  }
  impl.pubsub.reset();
  impl.edge.pubsub = nullptr;
  impl.peers.clear();
  impl.metrics_listener.close();
  cells_->set<&NetStats::subscriptions>(0);
  cells_->set<&NetStats::connections>(0);
  cells_->set<&NetStats::draining>(0);
  running_.store(false, std::memory_order_release);
}

}  // namespace dbsp::net
