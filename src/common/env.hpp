#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace dbsp {

/// Reads an integer configuration knob from the environment, falling back
/// to `fallback` when unset or unparseable. Used by the bench harnesses for
/// scale knobs (DBSP_SUBS, DBSP_EVENTS, ...).
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads a boolean knob ("1", "true", "yes" are truthy).
[[nodiscard]] bool env_bool(const char* name, bool fallback);

/// Parses all of `text` as a decimal integer in [lo, hi]; nullopt for
/// anything else (empty, a sign other than '-', trailing bytes, out of
/// range). The daemons' numeric flags go through it, so a bad value is a
/// usage error instead of a wrapped or zeroed one.
[[nodiscard]] std::optional<std::int64_t> parse_int(const char* text,
                                                    std::int64_t lo,
                                                    std::int64_t hi);

}  // namespace dbsp
