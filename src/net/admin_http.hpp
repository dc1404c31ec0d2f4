#pragma once

/// \file
/// AdminHttp: the HTTP side of dbspd's metrics port, without a socket.
/// Each admin connection carries one GET request and gets one response
/// (Connection: close). One route table serves /metrics (Prometheus text),
/// /traces (flight-recorder JSON), /healthz and /buildinfo, each also with
/// a ?query; anything else is a 404.

#include <chrono>
#include <string>
#include <string_view>

#include "net/connection.hpp"
#include "net/socket.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace dbsp::net {

/// One admin connection: the request read so far, then the response.
struct AdminConn {
  std::string request;
  OutBuffer out;
  bool responded = false;
};

class AdminHttp {
 public:
  /// Requests larger than this are closed without an answer.
  static constexpr std::size_t kMaxRequestBytes = 8 * 1024;

  /// Null `registry` or `recorder` serve an empty scrape / trace set.
  /// /healthz reads `stats` and counts uptime from construction.
  AdminHttp(const obs::MetricsRegistry* registry,
            const obs::FlightRecorder* recorder, const NetStatCells& stats)
      : registry_(registry), recorder_(recorder), stats_(stats) {}

  /// Appends request bytes; once the header terminator has arrived, queues
  /// the response into conn.out and sets conn.responded. False when the
  /// request outgrew kMaxRequestBytes: close without answering.
  [[nodiscard]] bool on_bytes(AdminConn& conn, std::string_view bytes) const;

  /// The whole HTTP response to one request; its first line picks the route.
  [[nodiscard]] std::string respond(std::string_view request) const;

 private:
  [[nodiscard]] std::string metrics() const;
  [[nodiscard]] std::string traces() const;
  [[nodiscard]] std::string healthz() const;
  [[nodiscard]] std::string buildinfo() const;

  const obs::MetricsRegistry* registry_;
  const obs::FlightRecorder* recorder_;
  const NetStatCells& stats_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

}  // namespace dbsp::net
