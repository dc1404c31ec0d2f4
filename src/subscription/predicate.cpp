#include "subscription/predicate.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"

namespace dbsp {

const char* to_string(Op op) {
  switch (op) {
    case Op::Eq: return "=";
    case Op::Ne: return "!=";
    case Op::Lt: return "<";
    case Op::Le: return "<=";
    case Op::Gt: return ">";
    case Op::Ge: return ">=";
    case Op::Between: return "between";
    case Op::In: return "in";
    case Op::Prefix: return "prefix";
    case Op::Suffix: return "suffix";
    case Op::Contains: return "contains";
  }
  return "?";
}

Predicate::Predicate(AttributeId attr, Op op, Value operand)
    : attr_(attr), op_(op) {
  if (op == Op::Between || op == Op::In) {
    throw std::invalid_argument("predicate: Between/In need the dedicated constructor");
  }
  operands_.push_back(std::move(operand));
}

Predicate::Predicate(AttributeId attr, Value low, Value high)
    : attr_(attr), op_(Op::Between) {
  if (high.key_less(low)) std::swap(low, high);
  operands_.push_back(std::move(low));
  operands_.push_back(std::move(high));
}

Predicate::Predicate(AttributeId attr, std::vector<Value> operands)
    : attr_(attr), op_(Op::In), operands_(std::move(operands)) {
  if (operands_.empty()) {
    throw std::invalid_argument("predicate: In needs at least one operand");
  }
  std::sort(operands_.begin(), operands_.end(),
            [](const Value& a, const Value& b) { return a.key_less(b); });
  operands_.erase(std::unique(operands_.begin(), operands_.end(),
                              [](const Value& a, const Value& b) { return a.equals(b); }),
                  operands_.end());
}

bool Predicate::matches(const Event& event) const {
  const Value* v = event.find(attr_);
  if (v == nullptr) return false;
  return matches_value(*v);
}

bool Predicate::matches_value(const Value& value) const {
  switch (op_) {
    case Op::Eq: return value.equals(operands_[0]);
    case Op::Ne: return !value.equals(operands_[0]);
    case Op::Lt: return value.less(operands_[0]);
    case Op::Le: return value.less(operands_[0]) || value.equals(operands_[0]);
    case Op::Gt: return operands_[0].less(value);
    case Op::Ge: return operands_[0].less(value) || value.equals(operands_[0]);
    case Op::Between:  // lo <= v <= hi, so false for NaN like Ge and Le
      return (operands_[0].less(value) || value.equals(operands_[0])) &&
             (value.less(operands_[1]) || value.equals(operands_[1]));
    case Op::In:
      return std::any_of(operands_.begin(), operands_.end(),
                         [&](const Value& o) { return value.equals(o); });
    case Op::Prefix: {
      if (value.type() != ValueType::String) return false;
      const auto& s = value.as_string();
      const auto& p = operands_[0].as_string();
      return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
    }
    case Op::Suffix: {
      if (value.type() != ValueType::String) return false;
      const auto& s = value.as_string();
      const auto& p = operands_[0].as_string();
      return s.size() >= p.size() && s.compare(s.size() - p.size(), p.size(), p) == 0;
    }
    case Op::Contains: {
      if (value.type() != ValueType::String) return false;
      return value.as_string().find(operands_[0].as_string()) != std::string::npos;
    }
  }
  return false;
}

bool Predicate::equals(const Predicate& other) const {
  if (attr_ != other.attr_ || op_ != other.op_ ||
      operands_.size() != other.operands_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < operands_.size(); ++i) {
    if (!operands_[i].equals(other.operands_[i])) return false;
  }
  return true;
}

std::size_t Predicate::hash() const {
  std::size_t seed = 0;
  hash_combine(seed, attr_.value());
  hash_combine(seed, static_cast<int>(op_));
  for (const auto& o : operands_) hash_combine(seed, o);
  return seed;
}

std::size_t Predicate::size_bytes() const {
  // Model: 8-byte header (attribute id + operator + operand count) plus a
  // fixed 16 bytes per operand, plus string payloads.
  std::size_t bytes = 8;
  for (const auto& o : operands_) {
    bytes += 16;
    if (o.type() == ValueType::String) bytes += o.as_string().size();
  }
  return bytes;
}

std::string Predicate::to_string(const Schema& schema) const {
  std::ostringstream os;
  os << schema.name(attr_) << ' ' << dbsp::to_string(op_) << ' ';
  if (op_ == Op::Between) {
    os << operands_[0].to_string() << " and " << operands_[1].to_string();
  } else if (op_ == Op::In) {
    os << '(';
    for (std::size_t i = 0; i < operands_.size(); ++i) {
      if (i != 0) os << ", ";
      os << operands_[i].to_string();
    }
    os << ')';
  } else {
    os << operands_[0].to_string();
  }
  return os.str();
}

}  // namespace dbsp
