// The wire probe: dbspd as a separate process, one publisher and three
// subscriber connections. The pruned subscription table (pruned offline on
// a core replica) is registered over the wire. Phase 1 is an open loop at
// a fixed rate, timed from each event's due time until its last
// notification is decoded; phase 2 keeps a bounded number of events in
// flight. Traced runs of every workload report the net layer from it.
// Notifications are correlated to publishes by seq: this connection is the
// daemon's only publisher, so the k-th publish carries seq k.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "routing/codec.hpp"
#include "store/format.hpp"

extern char** environ;

namespace pb {

using namespace dbsp;
using net::MsgType;

namespace {

constexpr std::size_t kConnections = 3;
constexpr std::size_t kMaxSeq = 1u << 20;
constexpr std::size_t kWarmupEvents = 1000;
constexpr std::size_t kInFlight = 16;
constexpr double kOpenLoopRate = 1000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Restricts the calling thread (and what it forks) to CPUs [first, first + count).
void pin_to(int first, int count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu < first + count; ++cpu) CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

/// Restores the calling thread's CPU affinity when it goes out of scope, so
/// the runs and probes after the wire probe keep every CPU.
class AffinityGuard {
 public:
  AffinityGuard() { saved_ = ::sched_getaffinity(0, sizeof set_, &set_) == 0; }
  ~AffinityGuard() {
    if (saved_) (void)::sched_setaffinity(0, sizeof set_, &set_);
  }
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;

 private:
  cpu_set_t set_{};
  bool saved_ = false;
};

/// dbspd as a child process with a pinned shard count, on a CPU of its own
/// so that where the scheduler happens to place it does not move the
/// figures from run to run. It dies with the driver (PR_SET_PDEATHSIG);
/// stop() drains it with SIGTERM and reaps it.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string_view domain) {
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "DBSP_", 5) != 0) env_store.emplace_back(*e);
    }
    env_store.emplace_back("DBSP_SHARDS=" + std::to_string(kShards));
    env_store.emplace_back("DBSP_LOG_LEVEL=error");
    std::vector<char*> envp;
    for (auto& s : env_store) envp.push_back(s.data());
    envp.push_back(nullptr);
    std::string dom(domain);
    std::vector<std::string> argv_store = {binary, "--port", "0", "--domain", dom};
    std::vector<char*> argv;
    for (auto& s : argv_store) argv.push_back(s.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      pin_to(0, 1);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    // The readiness line is awaited outside every timed span.
    std::string buf;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (buf.find('\n') == std::string::npos) {
      pollfd p{out_, POLLIN, 0};
      if (Clock::now() > deadline || ::poll(&p, 1, 1000) < 0) {
        throw std::runtime_error("dbspd did not become ready");
      }
      char chunk[256];
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n == 0) throw std::runtime_error("dbspd exited before it was ready");
      if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
    }
    const auto at = buf.find("listening on ");
    const auto colon = buf.find(':', at);
    if (at == std::string::npos || colon == std::string::npos) {
      throw std::runtime_error("unexpected dbspd readiness line: " + buf);
    }
    port_ = static_cast<std::uint16_t>(std::stoi(buf.substr(colon + 1)));
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) ::close(out_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Graceful drain; true when the daemon exited 0.
  bool stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
};

/// The publishing connection, driven without waiting for replies so the
/// generator can hold an open-loop schedule: frames go out with send_all
/// and replies, which arrive in request order, are drained whenever the
/// socket is readable.
class Publisher {
 public:
  explicit Publisher(std::uint16_t port) {
    auto s = net::tcp_connect("127.0.0.1", port, 5000);
    if (!s.ok()) throw std::runtime_error("publisher connect: " + s.status().to_string());
    sock_ = std::move(s).value();
    send(net::make_empty_frame(MsgType::kHello));
    bool hello = false;
    while (!hello) {
      drain(-1, [&](MsgType type, WireReader&) { hello = type == MsgType::kHelloReply; });
    }
  }

  void send(std::span<const std::uint8_t> frame) {
    if (!net::send_all(sock_.fd(), frame).ok()) throw std::runtime_error("publisher send failed");
  }

  /// Waits up to `timeout_us` (< 0: forever) for the socket, then hands
  /// every complete frame to on_frame(type, payload reader).
  template <class F>
  void drain(std::int64_t timeout_us, F&& on_frame) {
    pollfd p{sock_.fd(), POLLIN, 0};
    timespec ts{static_cast<time_t>(timeout_us / 1000000),
                static_cast<long>((timeout_us % 1000000) * 1000)};
    const int ready = ::ppoll(&p, 1, timeout_us < 0 ? nullptr : &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("publisher poll failed");
    if (ready <= 0) return;
    std::uint8_t chunk[64 * 1024];
    auto got = net::recv_some(sock_.fd(), chunk);
    if (!got.ok() || got.value() == 0) throw std::runtime_error("publisher connection lost");
    assembler_.push(std::span<const std::uint8_t>(chunk, got.value()));
    while (auto frame = assembler_.next()) {
      WireReader r(*frame);
      (void)decode_wire_header(r);
      on_frame(net::checked_msg_type(r.get_u8()), r);
    }
  }

 private:
  net::Socket sock_;
  FrameAssembler assembler_;
};

/// Completion tracking shared by the publisher (replies) and the
/// subscriber threads (notifications). An event is complete once its reply
/// and all `matched` notifications have arrived; whichever arrival brings
/// its token count to zero stamps the completion time.
class Tracker {
 public:
  Tracker() : tokens_(kMaxSeq), done_ns_(kMaxSeq), matched_(kMaxSeq) {}

  void on_notify(std::uint64_t seq) {
    if (seq >= kMaxSeq) {
      stray_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (tokens_[seq].fetch_add(1, std::memory_order_acq_rel) + 1 == 0) complete(seq);
  }

  void on_reply(std::uint64_t seq, std::uint64_t matched) {
    if (seq >= kMaxSeq) throw std::runtime_error("sequence space exhausted");
    matched_[seq] = static_cast<std::uint32_t>(matched);
    const auto m = static_cast<std::int32_t>(matched);
    if (tokens_[seq].fetch_sub(m, std::memory_order_acq_rel) - m == 0) complete(seq);
  }

  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t done_ns(std::uint64_t seq) const {
    return done_ns_[seq].load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t matched(std::uint64_t seq) const { return matched_[seq]; }
  [[nodiscard]] std::uint64_t stray() const { return stray_.load(std::memory_order_relaxed); }

 private:
  void complete(std::uint64_t seq) {
    done_ns_[seq].store(now_ns(), std::memory_order_release);
    completed_.fetch_add(1, std::memory_order_acq_rel);
  }

  std::vector<std::atomic<std::int32_t>> tokens_;
  std::vector<std::atomic<std::int64_t>> done_ns_;
  std::vector<std::uint32_t> matched_;  ///< publisher thread only
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> stray_{0};
};

/// Notification ids recorded for the check window of seqs.
struct Capture {
  std::mutex mutex;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  ///< (seq, wire id)
};

void subscriber_loop(net::DbspClient& client, Tracker& tracker, Capture& cap,
                     const std::atomic<bool>& stop, std::atomic<std::uint64_t>& errors) {
  while (!stop.load(std::memory_order_acquire)) {
    auto n = client.next_notification(20);
    if (!n.ok()) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!n.value().has_value()) continue;
    const net::NetNotification& note = *n.value();
    {
      std::lock_guard<std::mutex> lock(cap.mutex);
      if (note.seq >= cap.lo && note.seq < cap.hi) cap.seen.emplace_back(note.seq, note.subscription);
    }
    tracker.on_notify(note.seq);
  }
}

Clock::duration seconds_to(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

}  // namespace

void run_wire(const Table& t, Ctx& c) {
  Report& rep = c.report;
  Tracer& tr = c.tracer;
  const std::size_t n = t.trees.size();

  // Pruned table, computed offline: the daemon holds the pruned trees, the
  // naive oracle evaluates the originals.
  CoreReplica core(t, tr);
  core.prune(tr);

  Daemon daemon(c.args.daemon, t.domain->name());
  // The generator's threads share the remaining CPUs until the probe ends.
  const AffinityGuard restore_affinity;
  pin_to(1, std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  std::vector<net::DbspClient> subs;
  for (std::size_t k = 0; k < kConnections; ++k) {
    rep.attempted();
    auto client = net::DbspClient::connect("127.0.0.1", daemon.port());
    if (!client.ok()) {
      rep.failed();
      throw std::runtime_error("subscriber connect: " + client.status().to_string());
    }
    subs.push_back(std::move(client).value());
  }
  rep.check(store::schemas_equal(subs[0].schema(), t.schema()),
            "wire: the daemon's schema differs from the workload's");
  rep.attempted();
  Publisher pub(daemon.port());

  // --- Register the table over the wire ------------------------------------------
  std::vector<std::uint64_t> wire_id(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    auto id = subs[i % kConnections].subscribe(core.subs[i]->root());
    rep.attempted();
    if (!id.ok()) {
      rep.failed();
      continue;
    }
    wire_id[i] = id.value();
  }
  std::unordered_map<std::uint64_t, std::uint32_t> index_of;
  for (std::size_t i = 0; i < n; ++i) index_of.emplace(wire_id[i], static_cast<std::uint32_t>(i));

  // The same pruned table in-process: the reference for the delivered ids.
  std::vector<SubscriptionId> replica_got;
  PubSubOptions ropts;
  ropts.engine.shards = kShards;
  std::vector<SubscriptionHandle> replica_handles;  // inert once the replica is gone
  PubSub replica(t.schema(), ropts);
  for (const auto& sub : core.subs) {
    auto h = replica.subscribe(sub->root().clone(),
                               [&](const Notification& note) { replica_got.push_back(note.subscription); });
    rep.check(h.ok(), "wire: replica subscribe failed");
    if (h.ok()) replica_handles.push_back(std::move(h).value());
  }

  Tracker tracker;
  Capture cap;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sub_errors{0};
  std::vector<std::thread> threads;
  for (auto& client : subs) {
    threads.emplace_back(subscriber_loop, std::ref(client), std::ref(tracker), std::ref(cap),
                         std::cref(stop), std::ref(sub_errors));
  }
  struct Joiner {
    std::vector<std::thread>& threads;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true, std::memory_order_release);
      for (auto& th : threads) {
        if (th.joinable()) th.join();
      }
    }
  } joiner{threads, stop};

  std::uint64_t sent = 0;
  std::uint64_t replied = 0;
  std::uint64_t publish_errors = 0;
  std::optional<net::NetStats> stats_reply;
  const auto on_frame = [&](MsgType type, WireReader& r) {
    if (type == MsgType::kPublishReply) {
      tracker.on_reply(replied++, r.get_u64());
    } else if (type == MsgType::kError) {
      ++publish_errors;
      tracker.on_reply(replied++, 0);
    } else if (type == MsgType::kStatsReply) {
      stats_reply = net::decode_stats(r);
    }
  };
  const auto send_event = [&](const Event& e) {
    std::vector<std::uint8_t> frame;
    {
      auto span = tr.span("net.client_encode");
      WireWriter payload;
      encode_event(e, payload);
      frame = net::make_frame(MsgType::kPublish, payload);
    }
    pub.send(frame);
    ++sent;
  };
  const auto wait_all = [&] {
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (tracker.completed() < sent) {
      pub.drain(1000, on_frame);
      if (Clock::now() > deadline) throw std::runtime_error("wire: events never completed");
    }
  };
  const auto server_stats = [&] {
    stats_reply.reset();
    pub.send(net::make_empty_frame(MsgType::kStats));
    while (!stats_reply) pub.drain(-1, on_frame);
    return *stats_reply;
  };
  const auto bounded = [&](Clock::time_point until, std::size_t max_events, RateBlocks* blocks) {
    std::uint64_t seen = tracker.completed();
    std::size_t issued = 0;
    while (Clock::now() < until && issued < max_events) {
      while (sent - tracker.completed() < kInFlight && issued < max_events) {
        send_event(t.events[sent % t.events.size()]);
        ++issued;
      }
      pub.drain(200, on_frame);
      const std::uint64_t done = tracker.completed();
      if (blocks != nullptr) blocks->add(Clock::now(), done - seen);
      seen = done;
    }
    wait_all();
  };

  // --- Warm-up, then the output check -----------------------------------------
  bounded(Clock::time_point::max(), kWarmupEvents, nullptr);
  {
    std::lock_guard<std::mutex> lock(cap.mutex);
    cap.lo = sent;
    cap.hi = sent + t.check.size();
  }
  const std::uint64_t check_lo = sent;
  for (const Event& e : t.check) {
    send_event(e);
    wait_all();
  }
  std::vector<std::vector<std::uint32_t>> wire_got(t.check.size());
  {
    std::lock_guard<std::mutex> lock(cap.mutex);
    for (const auto& [seq, id] : cap.seen) {
      const auto it = index_of.find(id);
      rep.check(it != index_of.end(), "wire: notification for an unknown subscription");
      if (it != index_of.end()) wire_got[seq - check_lo].push_back(it->second);
    }
  }
  std::vector<const Node*> originals;
  for (const auto& tree : t.trees) originals.push_back(tree.get());
  std::uint64_t got_total = 0;
  std::uint64_t exact_total = 0;
  std::vector<double> replica_us;
  for (std::size_t k = 0; k < t.check.size(); ++k) {
    std::sort(wire_got[k].begin(), wire_got[k].end());
    replica_got.clear();
    const auto a = Clock::now();
    {
      auto span = tr.span("api.replica_publish");
      replica.publish(t.check[k]);
    }
    replica_us.push_back(us_between(a, Clock::now()));
    std::vector<std::uint32_t> expect;
    for (const SubscriptionId id : replica_got) expect.push_back(id.value());
    std::sort(expect.begin(), expect.end());
    rep.check(wire_got[k] == expect, "wire: notification ids differ from the in-process replica");
    rep.check(tracker.matched(check_lo + k) == wire_got[k].size(),
              "wire: publish reply disagrees with the notification count");
    const auto exact = naive_matches(originals, t.check[k]);
    rep.check(std::includes(expect.begin(), expect.end(), exact.begin(), exact.end()),
              "wire: a delivery the naive oracle requires is missing");
    got_total += wire_got[k].size();
    exact_total += exact.size();
  }
  {
    std::lock_guard<std::mutex> lock(cap.mutex);
    cap.lo = cap.hi = 0;
  }
  // The replica delivers exactly what the wire delivers (checked above).
  ExactDeliveries exact(t.schema(), originals, t.events);
  std::uint64_t ratio_delivered = 0;
  for (std::size_t k = 0; k < std::min(kRatioEvents, t.events.size()); ++k) {
    ratio_delivered += replica.publish(t.events[k]);
  }
  const double fp = false_positive_ratio(ratio_delivered, exact.total());

  // --- Phase 1: open loop at a fixed rate --------------------------------------
  const double rate = kOpenLoopRate;
  const double phase1_s = c.seconds / 2;
  const auto count = static_cast<std::size_t>(rate * phase1_s);
  const net::NetStats before = server_stats();
  const std::uint64_t first = sent;
  std::vector<std::int64_t> due_ns(count);
  std::vector<double> late_us;
  late_us.reserve(count);
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < count; ++i) {
    const auto due = t0 + seconds_to(static_cast<double>(i) / rate);
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      pub.drain(std::chrono::duration_cast<std::chrono::microseconds>(due - now).count(), on_frame);
    }
    const auto sent_at = Clock::now();
    send_event(t.events[sent % t.events.size()]);
    due_ns[i] = std::chrono::duration_cast<std::chrono::nanoseconds>(due.time_since_epoch()).count();
    late_us.push_back(us_between(due, sent_at));
  }
  wait_all();
  const net::NetStats after = server_stats();
  std::vector<double> latency_us;
  latency_us.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    latency_us.push_back(static_cast<double>(tracker.done_ns(first + i) - due_ns[i]) / 1e3);
  }

  // --- Phase 2: bounded in-flight window ----------------------------------------
  const auto p2_start = Clock::now();
  RateBlocks blocks(p2_start, 0.5);
  bounded(p2_start + seconds_to(c.seconds - phase1_s), static_cast<std::size_t>(-1), &blocks);
  rep.detail("wire_events_per_s", blocks.median_rate());
  const net::NetStats final_stats = server_stats();
  rep.attempted(sent);
  rep.failed(publish_errors);

  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  threads.clear();
  rep.failed(sub_errors.load());
  rep.check(tracker.stray() == 0, "wire: notification outside the sequence space");

  std::vector<double> ping_us;
  if (c.layers) {
    for (std::uint64_t k = 0; k < 2000; ++k) {
      const auto a = Clock::now();
      auto pong = subs[0].ping(k);
      ping_us.push_back(us_between(a, Clock::now()));
      rep.check(pong.ok() && pong.value() == k, "wire: ping echo mismatch");
    }
  }
  for (auto& client : subs) client.close();
  const bool clean = daemon.stop();
  rep.check(clean, "wire: dbspd did not drain and exit cleanly");

  rep.detail("wire_notifications_per_event",
             static_cast<double>(got_total) / static_cast<double>(t.check.size()));
  rep.detail("wire_false_positive_ratio", fp);
  if (c.layers) {
    // Decode cost of the notify frames a tracing daemon sends.
    std::vector<double> decode_us;
    for (std::size_t k = 0; k < std::min<std::size_t>(2000, t.events.size()); ++k) {
      const auto frame = net::make_notify_frame(k, k, t.events[k], obs::make_trace_context(false), 1);
      const auto a = Clock::now();
      {
        auto span = tr.span("net.notify_decode");
        WireReader r(std::span<const std::uint8_t>(frame).subspan(4));
        (void)decode_wire_header(r);
        (void)r.get_u8();
        (void)r.get_u64();
        (void)r.get_u64();
        const Event e = decode_event(r);
        (void)net::decode_trace_context_opt(r);
        (void)r.get_u64();
        rep.check(e.size() == t.events[k].size(), "wire: notify frame round trip");
      }
      decode_us.push_back(us_between(a, Clock::now()));
    }
    const double events = static_cast<double>(count);
    const double wire_p50 = quantile(latency_us, 0.5);
    rep.metric("net.client_encode_us", tr.median_us("net.client_encode"), "us");
    rep.metric("net.notify_decode_us", median(decode_us), "us");
    rep.metric("net.ping_rtt_us", median(ping_us), "us");
    rep.metric("api.replica_publish_us", median(replica_us), "us");
    rep.metric("net.overhead_us", wire_p50 - median(replica_us), "us");
    rep.metric("net.frames_out_per_event",
               static_cast<double>(after.frames_sent - before.frames_sent) / events, "count");
    rep.metric("net.bytes_out_per_event",
               static_cast<double>(after.bytes_sent - before.bytes_sent) / events, "B");
    rep.metric("net.write_queue_high_water_kb",
               static_cast<double>(final_stats.write_queue_high_water) / 1024.0, "KiB");
    rep.metric("net.slow_consumer_disconnects",
               static_cast<double>(final_stats.slow_consumer_disconnects), "count");
    rep.metric("gen.late_p99_us", quantile(late_us, 0.99), "us");
    rep.detail("wire_publish_p50_us", wire_p50);
    rep.detail("net_share_of_publish_p50",
               wire_p50 > 0 ? (wire_p50 - median(replica_us)) / wire_p50 : 0.0);
  }
}

}  // namespace pb
