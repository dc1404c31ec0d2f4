#include "obs/log.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace dbsp::obs {

namespace {

std::atomic<int> g_level{-1};  // -1: not yet read from the environment

[[nodiscard]] LogLevel level_from_env() {
  const char* env = std::getenv("DBSP_LOG_LEVEL");
  return parse_log_level(env != nullptr ? env : "", LogLevel::kInfo);
}

/// True when `value` can go on the line bare (no spaces, quotes,
/// backslashes, '=', or control characters).
[[nodiscard]] bool bare_safe(std::string_view value) {
  if (value.empty()) return false;
  for (const char c : value) {
    if (c <= ' ' || c == '"' || c == '\\' || c == '=' || c == 0x7F) return false;
  }
  return true;
}

void append_quoted(std::string& out, std::string_view value) {
  out.push_back('"');
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out.append("\\n");
    } else if (c == '\r') {
      out.append("\\r");
    } else if (c == '\t') {
      out.append("\\t");
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_timestamp(std::string& line) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for the worst case the compiler must assume (seven ints of up to
  // 11 characters each, 7 separators, NUL), not the 24 a real time needs.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  line.append(buf);
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "info";
}

LogLevel parse_log_level(std::string_view text, LogLevel fallback) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off") return LogLevel::kOff;
  return fallback;
}

LogLevel log_level() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(level_from_env());
    // First caller wins; a concurrent set_log_level is not overwritten.
    int expected = -1;
    if (!g_level.compare_exchange_strong(expected, level,
                                         std::memory_order_relaxed)) {
      level = expected;
    }
  }
  return static_cast<LogLevel>(level);
}

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogEvent::LogEvent(LogLevel level, std::string_view component,
                   std::string_view message)
    : enabled_(log_enabled(level)) {
  if (!enabled_) return;
  line_.reserve(128);
  line_.append("ts=");
  append_timestamp(line_);
  line_.append(" level=");
  line_.append(to_string(level));
  line_.append(" component=");
  line_.append(component);
  line_.append(" msg=");
  append_quoted(line_, message);
}

LogEvent::~LogEvent() {
  if (!enabled_) return;
  line_.push_back('\n');
  // One fwrite per line: concurrent lines interleave whole.
  std::fwrite(line_.data(), 1, line_.size(), stderr);
  std::fflush(stderr);
}

LogEvent& LogEvent::kv(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  line_.push_back(' ');
  line_.append(key);
  line_.push_back('=');
  if (bare_safe(value)) {
    line_.append(value);
  } else {
    append_quoted(line_, value);
  }
  return *this;
}

LogEvent& LogEvent::kv(std::string_view key, std::uint64_t value) {
  if (!enabled_) return *this;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  return kv(key, std::string_view(buf));
}

LogEvent& LogEvent::kv(std::string_view key, std::int64_t value) {
  if (!enabled_) return *this;
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return kv(key, std::string_view(buf));
}

LogEvent& LogEvent::kv(std::string_view key, double value) {
  if (!enabled_) return *this;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return kv(key, std::string_view(buf));
}

bool LogRateLimit::allow() {
  if (max_per_sec_ == 0) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const auto now_s = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  std::uint64_t window = window_start_s_.load(std::memory_order_relaxed);
  if (window != now_s &&
      window_start_s_.compare_exchange_strong(window, now_s,
                                              std::memory_order_relaxed)) {
    in_window_.store(0, std::memory_order_relaxed);
  }
  if (in_window_.fetch_add(1, std::memory_order_relaxed) < max_per_sec_) {
    return true;
  }
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

}  // namespace dbsp::obs
