#include "net/admin_http.hpp"

#include "obs/exposition.hpp"

namespace dbsp::net {

bool AdminHttp::on_bytes(AdminConn& conn, std::string_view bytes) const {
  conn.request.append(bytes);
  if (conn.request.size() > kMaxRequestBytes) return false;
  if (conn.request.find("\r\n\r\n") == std::string::npos) return true;
  const std::string response = respond(conn.request);
  conn.out.append(std::span(reinterpret_cast<const std::uint8_t*>(response.data()),
                            response.size()));
  conn.responded = true;
  return true;
}

std::string AdminHttp::respond(std::string_view request) const {
  struct Route {
    std::string_view path;
    const char* content_type;
    std::string (AdminHttp::*body)() const;
  };
  static const Route kRoutes[] = {
      {"/metrics", obs::prometheus_content_type(), &AdminHttp::metrics},
      {"/traces", "application/json; charset=utf-8", &AdminHttp::traces},
      {"/healthz", "application/json; charset=utf-8", &AdminHttp::healthz},
      {"/buildinfo", "application/json; charset=utf-8", &AdminHttp::buildinfo},
  };
  const auto response = [](const char* status, std::string_view content_type,
                           const std::string& body) {
    return "HTTP/1.1 " + std::string(status) + "\r\nContent-Type: " +
           std::string(content_type) + "\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  };
  // "GET <path> HTTP/1.1" or "GET <path>?<query> HTTP/1.1"
  const std::string_view line = request.substr(0, request.find("\r\n"));
  const std::string_view target = line.starts_with("GET ") ? line.substr(4) : "";
  for (const Route& route : kRoutes) {
    if (!target.starts_with(route.path)) continue;
    const std::string_view rest = target.substr(route.path.size());
    if (rest.starts_with(' ') || rest.starts_with('?')) {
      return response("200 OK", route.content_type, (this->*route.body)());
    }
  }
  return response("404 Not Found", "text/plain; charset=utf-8", "not found\n");
}

std::string AdminHttp::metrics() const {
  return registry_ ? obs::to_prometheus(registry_->snapshot()) : std::string();
}

std::string AdminHttp::traces() const {
  return recorder_ ? obs::traces_json(*recorder_) : obs::traces_json({}, 0, 0);
}

std::string AdminHttp::healthz() const {
  const auto uptime_s = std::chrono::duration_cast<std::chrono::seconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
  return "{\"status\": \"ok\", \"draining\": " +
         std::to_string(stats_.get<&NetStats::draining>()) +
         ", \"uptime_s\": " + std::to_string(uptime_s) +
         ", \"connections\": " + std::to_string(stats_.get<&NetStats::connections>()) +
         "}";
}

// Static facts about this binary.
std::string AdminHttp::buildinfo() const {
  std::string out = "{\"name\": \"dbspd\", \"wire_format_version\": ";
  out += std::to_string(static_cast<unsigned>(kWireFormatVersion));
  out += ", \"compiler\": \"";
#if defined(__clang__)
  out += "clang " __clang_version__;
#elif defined(__GNUC__)
  out += "gcc " __VERSION__;
#else
  out += "unknown";
#endif
  out += "\", \"cxx_standard\": " + std::to_string(__cplusplus / 100);
#ifdef NDEBUG
  out += ", \"assertions\": false}";
#else
  out += ", \"assertions\": true}";
#endif
  return out;
}

}  // namespace dbsp::net
