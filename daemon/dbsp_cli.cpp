/// \file
/// dbsp-cli — operator client for dbspd.
///
///   dbsp-cli [--host H] --port P <command> [args]
///
/// Commands:
///   ping [count]            round-trip latency check (default 1)
///   stats                   print the server's NetStats counters
///   metrics [--table]       print the server's full metrics scrape as
///                           JSON, or as aligned name/labels/value columns
///   traces                  print the server's flight-recorder traces as
///                           JSON (same shape as GET /traces)
///   publish a=v [b=v ...]   publish one event; values are parsed against
///                           the server's schema types
///   subscribe '<dsl>'       register a filter and stream notifications
///                           until --max N arrive (default: forever)
///   adopt <id>              re-claim a recovered subscription and stream
///   smoke <n>               open n concurrent connections, ping each,
///                           then close them all (the 1k-connection check)
///
/// Exit status: 0 success, 1 server/protocol error, 2 usage error.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "common/env.hpp"
#include "event/event.hpp"
#include "net/client.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"

namespace {

using dbsp::net::DbspClient;

int usage() {
  std::fprintf(stderr,
               "usage: dbsp-cli [--host H] --port P <command> [args]\n"
               "  ping [count] | stats | metrics [--table] | traces | publish "
               "a=v... | subscribe '<dsl>' [--max N] | adopt <id> [--max N] | "
               "smoke <n>\n");
  return 2;
}

int fail(const dbsp::Status& status) {
  std::fprintf(stderr, "dbsp-cli: %s\n", status.to_string().c_str());
  return 1;
}

void raise_nofile_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

/// Parses "attr=value" against the schema's declared type for attr.
dbsp::Result<std::pair<dbsp::AttributeId, dbsp::Value>> parse_pair(
    const dbsp::Schema& schema, const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return dbsp::Status::error(dbsp::ErrorCode::kInvalidArgument,
                               "expected attr=value, got '" + text + "'");
  }
  const std::string name = text.substr(0, eq);
  const std::string raw = text.substr(eq + 1);
  const auto attr = schema.find(name);
  if (!attr.has_value()) {
    return dbsp::Status::error(dbsp::ErrorCode::kNotFound,
                               "unknown attribute '" + name + "'");
  }
  try {
    switch (schema.type(*attr)) {
      case dbsp::ValueType::Int:
        return std::pair(*attr, dbsp::Value(std::int64_t(std::stoll(raw))));
      case dbsp::ValueType::Double:
        return std::pair(*attr, dbsp::Value(std::stod(raw)));
      case dbsp::ValueType::Bool:
        return std::pair(*attr, dbsp::Value(raw == "true" || raw == "1"));
      case dbsp::ValueType::String:
        return std::pair(*attr, dbsp::Value(raw));
    }
  } catch (const std::exception&) {
    // fall through to the error below
  }
  return dbsp::Status::error(dbsp::ErrorCode::kInvalidArgument,
                             "cannot parse value '" + raw + "' for '" + name + "'");
}

/// Renders one series' value column: counters/gauges as numbers (integral
/// ones without a trailing ".000000"), histograms as count/sum/mean.
std::string metric_value_cell(const dbsp::obs::MetricSnapshot& m) {
  char buf[96];
  if (m.kind == dbsp::obs::MetricKind::kHistogram) {
    const auto& h = m.histogram;
    const double mean = h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
    std::snprintf(buf, sizeof(buf), "count=%llu sum=%.3f mean=%.3f",
                  static_cast<unsigned long long>(h.count), h.sum, mean);
    return buf;
  }
  if (m.value == static_cast<double>(static_cast<long long>(m.value))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(m.value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6f", m.value);
  }
  return buf;
}

/// `metrics --table`: one aligned row per series next to the raw JSON and
/// Prometheus forms — the human-skimmable view.
void print_metrics_table(const dbsp::obs::MetricsSnapshot& snapshot) {
  std::vector<std::array<std::string, 3>> rows;
  rows.push_back({"NAME", "LABELS", "VALUE"});
  for (const auto& m : snapshot.metrics) {
    std::string labels;
    for (const auto& [k, v] : m.labels) {
      if (!labels.empty()) labels += ",";
      labels += k + "=" + v;
    }
    if (labels.empty()) labels = "-";
    rows.push_back({m.name, std::move(labels), metric_value_cell(m)});
  }
  std::size_t width[2] = {0, 0};
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < 2; ++c) width[c] = std::max(width[c], row[c].size());
  }
  for (const auto& row : rows) {
    std::printf("%-*s  %-*s  %s\n", static_cast<int>(width[0]), row[0].c_str(),
                static_cast<int>(width[1]), row[1].c_str(), row[2].c_str());
  }
}

int stream_notifications(DbspClient& client, long long max) {
  long long seen = 0;
  while (max < 0 || seen < max) {
    auto n = client.next_notification(/*timeout_ms=*/-1);
    if (!n.ok()) return fail(n.status());
    if (!n.value().has_value()) continue;
    std::printf("notify sub=%llu seq=%llu %s\n",
                static_cast<unsigned long long>(n.value()->subscription),
                static_cast<unsigned long long>(n.value()->seq),
                n.value()->event.to_string(client.schema()).c_str());
    std::fflush(stdout);
    ++seen;
  }
  return 0;
}

int run_smoke(const std::string& host, std::uint16_t port, std::size_t n) {
  raise_nofile_limit();
  std::vector<DbspClient> clients;
  clients.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto c = DbspClient::connect(host, port, /*timeout_ms=*/15000);
    if (!c.ok()) {
      std::fprintf(stderr, "dbsp-cli: smoke connect %zu/%zu: %s\n", i + 1, n,
                   c.status().to_string().c_str());
      return 1;
    }
    clients.push_back(std::move(c).value());
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto pong = clients[i].ping(i);
    if (!pong.ok()) return fail(pong.status());
    if (pong.value() != i) {
      std::fprintf(stderr, "dbsp-cli: smoke ping %zu echoed %llu\n", i,
                   static_cast<unsigned long long>(pong.value()));
      return 1;
    }
  }
  std::printf("smoke ok: %zu connections alive and answering\n", n);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      const auto v = dbsp::parse_int(argv[++i], 1, 65535);
      if (!v) return usage();
      port = static_cast<std::uint16_t>(*v);
    } else {
      break;
    }
  }
  if (i >= argc || port == 0) return usage();
  const std::string command = argv[i++];

  // Counts and ids parse strictly too: a bad one is a usage error.
  const auto count_at = [&](int at) {
    return at < argc ? dbsp::parse_int(argv[at], 0, INT64_MAX) : std::nullopt;
  };

  // smoke manages its own connections.
  if (command == "smoke") {
    const auto n = count_at(i);
    if (!n) return usage();
    return run_smoke(host, port, static_cast<std::size_t>(*n));
  }

  auto connected = DbspClient::connect(host, port);
  if (!connected.ok()) return fail(connected.status());
  DbspClient client = std::move(connected).value();

  if (command == "ping") {
    const auto count = i < argc ? count_at(i) : 1;
    if (!count) return usage();
    for (std::int64_t k = 0; k < *count; ++k) {
      auto pong = client.ping(static_cast<std::uint64_t>(k));
      if (!pong.ok()) return fail(pong.status());
    }
    std::printf("pong x%lld\n", static_cast<long long>(*count));
    return 0;
  }

  if (command == "stats") {
    auto s = client.stats();
    if (!s.ok()) return fail(s.status());
    const auto& v = s.value();
    std::printf("connections=%llu accepted=%llu rejected=%llu\n"
                "frames_received=%llu frames_sent=%llu\n"
                "bytes_received=%llu bytes_sent=%llu\n"
                "protocol_errors=%llu slow_consumer_disconnects=%llu\n"
                "subscriptions=%llu notifications_enqueued=%llu\n"
                "events_published=%llu notifications_delivered=%llu\n"
                "write_queue_high_water=%llu draining=%llu\n",
                static_cast<unsigned long long>(v.connections),
                static_cast<unsigned long long>(v.connections_accepted),
                static_cast<unsigned long long>(v.connections_rejected),
                static_cast<unsigned long long>(v.frames_received),
                static_cast<unsigned long long>(v.frames_sent),
                static_cast<unsigned long long>(v.bytes_received),
                static_cast<unsigned long long>(v.bytes_sent),
                static_cast<unsigned long long>(v.protocol_errors),
                static_cast<unsigned long long>(v.slow_consumer_disconnects),
                static_cast<unsigned long long>(v.subscriptions),
                static_cast<unsigned long long>(v.notifications_enqueued),
                static_cast<unsigned long long>(v.events_published),
                static_cast<unsigned long long>(v.notifications_delivered),
                static_cast<unsigned long long>(v.write_queue_high_water),
                static_cast<unsigned long long>(v.draining));
    return 0;
  }

  if (command == "metrics") {
    auto s = client.metrics();
    if (!s.ok()) return fail(s.status());
    if (i < argc && std::strcmp(argv[i], "--table") == 0) {
      print_metrics_table(s.value());
      return 0;
    }
    std::printf("%s\n", dbsp::obs::to_json(s.value()).c_str());
    return 0;
  }

  if (command == "traces") {
    auto t = client.traces();
    if (!t.ok()) return fail(t.status());
    std::printf("%s\n",
                dbsp::obs::traces_json(t.value().traces,
                                       t.value().recorded_total,
                                       t.value().dropped_total)
                    .c_str());
    return 0;
  }

  if (command == "publish") {
    if (i >= argc) return usage();
    dbsp::Event event;
    for (; i < argc; ++i) {
      auto pair = parse_pair(client.schema(), argv[i]);
      if (!pair.ok()) return fail(pair.status());
      event.set(pair.value().first, std::move(pair.value().second));
    }
    auto matched = client.publish(event);
    if (!matched.ok()) return fail(matched.status());
    std::printf("published: matched %llu subscription(s)\n",
                static_cast<unsigned long long>(matched.value()));
    return 0;
  }

  if (command == "subscribe" || command == "adopt") {
    if (i >= argc) return usage();
    const std::string target = argv[i++];
    long long max = -1;
    if (i + 1 < argc && std::strcmp(argv[i], "--max") == 0) {
      const auto n = count_at(i + 1);
      if (!n) return usage();
      max = *n;
    }
    const auto adopt_id = dbsp::parse_int(target.c_str(), 0, INT64_MAX);
    if (command == "adopt" && !adopt_id) return usage();
    auto id = command == "subscribe"
                  ? client.subscribe(std::string_view(target))
                  : client.adopt(static_cast<std::uint64_t>(adopt_id.value()));
    if (!id.ok()) return fail(id.status());
    std::printf("subscribed id=%llu\n",
                static_cast<unsigned long long>(id.value()));
    std::fflush(stdout);
    return stream_notifications(client, max);
  }

  std::fprintf(stderr, "dbsp-cli: unknown command '%s'\n", command.c_str());
  return usage();
}
