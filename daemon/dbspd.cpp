/// \file
/// dbspd — the networked broker daemon. Fronts a dbsp::PubSub (optionally
/// durable via --store) with the net::NetServer TCP edge.
///
///   dbspd [--host H] [--port P] [--domain auction|stock|iot]
///         [--store DIR] [--snapshot-every N] [--fsync] [--pruning]
///         [--drain-timeout-ms N] [--metrics-port P] [--trace-dump PATH]
///
/// --snapshot-every N (WAL records between checkpoints, default 1024) and
/// --fsync (fsync every WAL append and snapshot) tune the --store. A
/// malformed or out-of-range number (say --port 70000) prints the usage
/// and exits 2. SIGTERM/SIGINT trigger a graceful drain: stop accepting,
/// flush every client's delivery queue, checkpoint the store, exit 0. A
/// second signal (or SIGQUIT) kills immediately — the crash path the
/// warm-restart tests exercise. SIGUSR1 dumps the flight recorder's
/// current traces to --trace-dump (default dbsp_traces.json) without
/// disturbing service.
///
/// Diagnostics go to stderr as structured key=value lines (obs/log.hpp,
/// level from DBSP_LOG_LEVEL); the stdout "listening"/"metrics" readiness
/// lines are a stable interface scripts wait for.

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/resource.h>

#include "api/pubsub.hpp"
#include "common/env.hpp"
#include "net/server.hpp"
#include "obs/log.hpp"
#include "scenario/workload_domain.hpp"

namespace {

dbsp::net::NetServer* g_server = nullptr;
std::atomic<int> g_signals{0};

void on_signal(int sig) {
  if (g_server == nullptr) return;
  if (sig == SIGUSR1) {
    g_server->request_trace_dump_async();
    return;
  }
  const int prior = g_signals.fetch_add(1, std::memory_order_relaxed);
  const bool drain = sig != SIGQUIT && prior == 0;
  g_server->request_stop_async(drain);
}

void raise_nofile_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--domain auction|stock|iot]\n"
               "          [--store DIR] [--snapshot-every N] [--fsync] [--pruning]\n"
               "          [--drain-timeout-ms N] [--metrics-port P] [--trace-dump PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dbsp::net::NetServerOptions options;
  std::string domain = "auction";
  std::string store_dir;
  dbsp::StoreOptions store;  // --snapshot-every, --fsync; used with --store
  bool pruning = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value: all of it must parse and lie in [lo, hi].
    const auto number = [&](std::int64_t lo, std::int64_t hi) {
      const char* v = next();
      return v == nullptr ? std::nullopt : dbsp::parse_int(v, lo, hi);
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.host = v;
    } else if (arg == "--port") {
      const auto v = number(0, 65535);
      if (!v) return usage(argv[0]);
      options.port = static_cast<std::uint16_t>(*v);
    } else if (arg == "--domain") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      domain = v;
    } else if (arg == "--store") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      store_dir = v;
    } else if (arg == "--snapshot-every") {
      const auto v = number(1, INT64_MAX);
      if (!v) return usage(argv[0]);
      store.snapshot_every = static_cast<std::size_t>(*v);
    } else if (arg == "--fsync") {
      store.fsync = true;
    } else if (arg == "--pruning") {
      pruning = true;
    } else if (arg == "--drain-timeout-ms") {
      const auto v = number(0, INT_MAX);
      if (!v) return usage(argv[0]);
      options.drain_timeout_ms = static_cast<int>(*v);
    } else if (arg == "--metrics-port") {
      const auto v = number(-1, 65535);
      if (!v) return usage(argv[0]);
      options.metrics_port = static_cast<int>(*v);
    } else if (arg == "--trace-dump") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      options.trace_dump_path = v;
    } else if (arg == "--help" || arg == "-h") {
      (void)usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "dbspd: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  raise_nofile_limit();

  std::unique_ptr<dbsp::WorkloadDomain> workload;
  try {
    workload = dbsp::make_workload(domain);
  } catch (const std::invalid_argument& e) {
    dbsp::obs::LogEvent(dbsp::obs::LogLevel::kError, "dbspd", "bad domain")
        .kv("error", e.what());
    return 2;
  }

  dbsp::PubSubOptions pubsub_options;
  pubsub_options.pruning = pruning;

  std::optional<dbsp::PubSub> pubsub;
  if (!store_dir.empty()) {
    store.directory = store_dir;
    store.schema = workload->schema();
    auto opened = dbsp::PubSub::open(std::move(store), pubsub_options);
    if (!opened.ok()) {
      dbsp::obs::LogEvent(dbsp::obs::LogLevel::kError, "dbspd", "open store failed")
          .kv("store", store_dir)
          .kv("error", opened.status().to_string());
      return 1;
    }
    pubsub.emplace(std::move(opened).value());
    dbsp::obs::LogEvent(dbsp::obs::LogLevel::kInfo, "dbspd", "store recovered")
        .kv("store", store_dir)
        .kv("subscriptions",
            static_cast<std::uint64_t>(pubsub->subscription_count()));
  } else {
    pubsub.emplace(workload->schema(), pubsub_options);
  }

  auto server =
      dbsp::net::NetServer::start(std::move(*pubsub), std::move(options));
  if (!server.ok()) {
    dbsp::obs::LogEvent(dbsp::obs::LogLevel::kError, "dbspd", "start failed")
        .kv("error", server.status().to_string());
    return 1;
  }
  g_server = server.value().get();

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGQUIT, &sa, nullptr);
  ::sigaction(SIGUSR1, &sa, nullptr);

  // The readiness line CI scripts wait for (stdout, flushed).
  std::printf("dbspd listening on %s:%u (domain=%s%s%s)\n",
              server.value()->options().host.c_str(), server.value()->port(),
              domain.c_str(), store_dir.empty() ? "" : ", store=",
              store_dir.c_str());
  if (server.value()->metrics_port() != 0) {
    std::printf("dbspd metrics on http://%s:%u/metrics\n",
                server.value()->options().host.c_str(),
                server.value()->metrics_port());
  }
  std::fflush(stdout);

  server.value()->wait();
  const auto stats = server.value()->stats();
  dbsp::obs::LogEvent(dbsp::obs::LogLevel::kInfo, "dbspd", "stopped")
      .kv("accepted", stats.connections_accepted)
      .kv("frames", stats.frames_received)
      .kv("published", stats.events_published)
      .kv("delivered", stats.notifications_delivered)
      .kv("protocol_errors", stats.protocol_errors)
      .kv("slow_disconnects", stats.slow_consumer_disconnects);
  g_server = nullptr;
  return 0;
}
