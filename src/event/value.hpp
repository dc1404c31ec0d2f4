#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace dbsp {

/// Type tag of a Value / attribute domain.
enum class ValueType : std::uint8_t { Int, Double, String, Bool };

/// A typed attribute value carried in events and predicate operands.
/// Ordering across Int and Double compares the exact numbers (a predicate
/// `price < 20` must accept both integral and floating bids, and
/// 2^53 + 1 is not 2^53.0, though it rounds to it as a double); comparisons
/// across other type combinations are false, mirroring the usual
/// content-based pub/sub semantics where a type mismatch never matches.
class Value {
 public:
  Value() : data_(std::int64_t{0}) {}
  Value(std::int64_t v) : data_(v) {}          // NOLINT(google-explicit-constructor)
  Value(int v) : data_(std::int64_t{v}) {}     // NOLINT(google-explicit-constructor)
  Value(double v) : data_(v) {}                // NOLINT(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(bool v) : data_(v) {}                  // NOLINT(google-explicit-constructor)

  [[nodiscard]] ValueType type() const;

  [[nodiscard]] bool is_numeric() const {
    return type() == ValueType::Int || type() == ValueType::Double;
  }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  [[nodiscard]] double as_double() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(data_); }

  /// Numeric view: Int and Double promote to double. Precondition: is_numeric().
  [[nodiscard]] double numeric() const;
  /// True when numeric() is this value exactly: every Double, and every Int
  /// a double represents (all up to 2^53, sparser beyond).
  [[nodiscard]] bool numeric_is_exact() const;

  /// Equality: numeric values compare exactly across Int/Double (hash()
  /// agrees), otherwise types must match exactly.
  [[nodiscard]] bool equals(const Value& other) const;
  /// Strict-weak "less than" for matching semantics: defined only between
  /// comparable values; returns false on type mismatch.
  [[nodiscard]] bool less(const Value& other) const;

  /// Total order usable as a container key (types ordered first, then value).
  [[nodiscard]] bool key_less(const Value& other) const;

  [[nodiscard]] std::size_t hash() const;

  /// Approximate heap + inline footprint in bytes, used by the memory
  /// heuristic (mem≈).
  [[nodiscard]] std::size_t size_bytes() const;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) { return a.equals(b); }

 private:
  std::variant<std::int64_t, double, std::string, bool> data_;
};

}  // namespace dbsp

namespace std {
template <>
struct hash<dbsp::Value> {
  size_t operator()(const dbsp::Value& v) const noexcept { return v.hash(); }
};
}  // namespace std
