#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

namespace dbsp {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  // Knobs are read at startup/construction, before worker threads exist,
  // and nothing in-tree calls setenv — getenv's thread-unsafety is moot.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || errno == ERANGE) return fallback;
  // Accept trailing whitespace only; "100abc" is a misconfiguration, not 100.
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (*end != '\0') return fallback;
  return static_cast<std::int64_t>(v);
}

bool env_bool(const char* name, bool fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- see env_int
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string_view v(raw);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::optional<std::int64_t> parse_int(const char* text, std::int64_t lo,
                                      std::int64_t hi) {
  if (text == nullptr || (!std::isdigit(static_cast<unsigned char>(*text)) &&
                          *text != '-')) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(v);
}

}  // namespace dbsp
