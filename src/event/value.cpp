#include "event/value.hpp"

#include <cmath>
#include <sstream>

#include "common/hash.hpp"

namespace dbsp {

namespace {

/// 2^63 as a double: the first double above every int64.
constexpr double kTwoPow63 = 9223372036854775808.0;

/// Three-way comparison of an Int with a non-NaN Double, exact at every
/// magnitude (no rounding of the Int to a double).
int compare_int_double(std::int64_t i, double d) {
  if (d >= kTwoPow63) return -1;
  if (d < -kTwoPow63) return 1;
  const double whole = std::trunc(d);  // in [-2^63, 2^63): exact as an int64
  const auto w = static_cast<std::int64_t>(whole);
  if (i != w) return i < w ? -1 : 1;
  return whole < d ? -1 : (whole > d ? 1 : 0);
}

/// Three-way comparison of two numeric values (-1, 0, 1), or 2 when either
/// is NaN and they are unordered.
int compare_numeric(const Value& a, const Value& b) {
  constexpr int kUnordered = 2;
  const bool a_int = a.type() == ValueType::Int;
  const bool b_int = b.type() == ValueType::Int;
  if (a_int && b_int) return a.as_int() < b.as_int() ? -1 : (a.as_int() > b.as_int() ? 1 : 0);
  if (!a_int && std::isnan(a.as_double())) return kUnordered;
  if (!b_int && std::isnan(b.as_double())) return kUnordered;
  if (a_int) return compare_int_double(a.as_int(), b.as_double());
  if (b_int) return -compare_int_double(b.as_int(), a.as_double());
  return a.as_double() < b.as_double() ? -1 : (a.as_double() > b.as_double() ? 1 : 0);
}

}  // namespace

ValueType Value::type() const {
  switch (data_.index()) {
    case 0: return ValueType::Int;
    case 1: return ValueType::Double;
    case 2: return ValueType::String;
    default: return ValueType::Bool;
  }
}

double Value::numeric() const {
  if (type() == ValueType::Int) return static_cast<double>(as_int());
  return as_double();
}

bool Value::numeric_is_exact() const {
  if (type() != ValueType::Int) return true;
  const double d = numeric();
  return d < kTwoPow63 && static_cast<std::int64_t>(d) == as_int();
}

bool Value::equals(const Value& other) const {
  if (is_numeric() && other.is_numeric()) return compare_numeric(*this, other) == 0;
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::String: return as_string() == other.as_string();
    case ValueType::Bool: return as_bool() == other.as_bool();
    default: return false;  // unreachable: numeric handled above
  }
}

bool Value::less(const Value& other) const {
  if (is_numeric() && other.is_numeric()) return compare_numeric(*this, other) == -1;
  if (type() != other.type()) return false;
  switch (type()) {
    case ValueType::String: return as_string() < other.as_string();
    case ValueType::Bool: return static_cast<int>(as_bool()) < static_cast<int>(other.as_bool());
    default: return false;
  }
}

bool Value::key_less(const Value& other) const {
  // Int and Double share a numeric key space so that an index keyed on
  // Value treats 20 and 20.0 as the same point.
  const bool an = is_numeric();
  const bool bn = other.is_numeric();
  if (an != bn || (!an && type() != other.type())) {
    auto rank = [](const Value& v) {
      return v.is_numeric() ? 0 : (v.type() == ValueType::String ? 1 : 2);
    };
    return rank(*this) < rank(other);
  }
  return less(other);
}

std::size_t Value::hash() const {
  std::size_t seed = 0;
  switch (type()) {
    case ValueType::Int: {
      hash_combine(seed, 0);
      // Hash as the double it equals, so 20 and 20.0 agree; an Int no
      // double equals (past 2^53) hashes as itself.
      if (numeric_is_exact()) {
        hash_combine(seed, numeric());
      } else {
        hash_combine(seed, as_int());
      }
      break;
    }
    case ValueType::Double:
      hash_combine(seed, 0);
      hash_combine(seed, numeric());
      break;
    case ValueType::String:
      hash_combine(seed, 1);
      hash_combine(seed, as_string());
      break;
    case ValueType::Bool:
      hash_combine(seed, 2);
      hash_combine(seed, as_bool());
      break;
  }
  return seed;
}

std::size_t Value::size_bytes() const {
  std::size_t bytes = sizeof(Value);
  if (type() == ValueType::String && as_string().capacity() > sizeof(std::string)) {
    bytes += as_string().capacity();
  }
  return bytes;
}

std::string Value::to_string() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::Int: os << as_int(); break;
    case ValueType::Double: os << as_double(); break;
    case ValueType::String: os << '\'' << as_string() << '\''; break;
    case ValueType::Bool: os << (as_bool() ? "true" : "false"); break;
  }
  return os.str();
}

}  // namespace dbsp
