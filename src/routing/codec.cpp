#include "routing/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace dbsp {

void WireWriter::grow(std::size_t bytes) {
  buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + bytes));
}

void WireWriter::put_string(const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw WireError("codec: string too long");
  }
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) throw WireError("codec: truncated input");
}

std::uint8_t WireReader::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t WireReader::get_u16() {
  need(2);
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double WireReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string WireReader::get_string() {
  const std::uint32_t len = get_u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

void FrameAssembler::push(std::span<const std::uint8_t> bytes) {
  // Compact once the consumed prefix dominates the buffer, so a long-lived
  // connection's assembler does not grow without bound.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<std::uint8_t>> FrameAssembler::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len == 0) throw WireError("frame: zero-length frame");
  if (len > max_frame_) {
    throw WireError("frame: length " + std::to_string(len) +
                    " exceeds max frame size " + std::to_string(max_frame_));
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  const auto begin = buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4);
  std::vector<std::uint8_t> payload(begin, begin + static_cast<std::ptrdiff_t>(len));
  pos_ += 4 + static_cast<std::size_t>(len);
  return payload;
}

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload,
                  std::size_t max_frame_bytes) {
  if (payload.empty()) throw WireError("frame: empty payload");
  if (payload.size() > max_frame_bytes ||
      payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw WireError("frame: payload exceeds max frame size");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
}

void encode_wire_header(WireWriter& out) {
  out.put_u8(kWireMagic);
  out.put_u8(kWireFormatVersion);
}

std::uint8_t decode_wire_header(WireReader& in) {
  if (in.get_u8() != kWireMagic) throw WireError("codec: bad magic byte");
  const std::uint8_t version = in.get_u8();
  if (version == 0 || version > kWireFormatVersion) {
    throw WireError("codec: unsupported wire format version " +
                    std::to_string(version));
  }
  return version;
}

namespace {

/// A cursor over bytes from WireWriter::extend, sized beforehand.
class Fields {
 public:
  explicit Fields(std::uint8_t* at) : at_(at) {}
  void u8(std::uint8_t v) { *at_++ = v; }
  template <class T>
  void le(T v) {
    store_le(at_, v);
    at_ += sizeof(T);
  }
  void raw(const char* bytes, std::size_t n) {
    std::memcpy(at_, bytes, n);
    at_ += n;
  }

 private:
  std::uint8_t* at_;
};

/// Encoded size of a value: tag plus payload.
std::size_t value_size(const Value& value) {
  switch (value.type()) {
    case ValueType::String:
      if (value.as_string().size() > std::numeric_limits<std::uint32_t>::max()) {
        throw WireError("codec: string too long");
      }
      return 5 + value.as_string().size();
    case ValueType::Bool:
      return 2;
    case ValueType::Int:
    case ValueType::Double:
      break;
  }
  return 9;
}

void write_value(const Value& value, Fields& out) {
  switch (value.type()) {
    case ValueType::Int:
      out.u8(0);
      out.le(static_cast<std::uint64_t>(value.as_int()));
      break;
    case ValueType::Double:
      out.u8(1);
      out.le(std::bit_cast<std::uint64_t>(value.as_double()));
      break;
    case ValueType::String: {
      const std::string& s = value.as_string();
      out.u8(2);
      out.le(static_cast<std::uint32_t>(s.size()));
      out.raw(s.data(), s.size());
      break;
    }
    case ValueType::Bool:
      out.u8(3);
      out.u8(value.as_bool() ? 1 : 0);
      break;
  }
}

}  // namespace

void encode_value(const Value& value, WireWriter& out) {
  Fields fields(out.extend(value_size(value)));
  write_value(value, fields);
}

Value decode_value(WireReader& in) {
  switch (in.get_u8()) {
    case 0: return Value(static_cast<std::int64_t>(in.get_u64()));
    case 1: return Value(in.get_f64());
    case 2: return Value(in.get_string());
    case 3: return Value(in.get_u8() != 0);
    default: throw WireError("codec: unknown value tag");
  }
}

void encode_event(const Event& event, WireWriter& out) {
  if (event.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw WireError("codec: event too wide");
  }
  out.put_u16(static_cast<std::uint16_t>(event.size()));
  for (const auto& [attr, value] : event.pairs()) {
    out.put_u32(attr.value());
    encode_value(value, out);
  }
}

Event decode_event(WireReader& in) {
  Event e;
  const std::uint16_t count = in.get_u16();
  for (std::uint16_t i = 0; i < count; ++i) {
    const AttributeId attr(in.get_u32());
    e.set(attr, decode_value(in));
  }
  return e;
}

namespace {

/// Encoded size of a predicate: attr u32, op u8, count u16, values.
std::size_t predicate_size(const Predicate& pred) {
  if (pred.operands().size() > std::numeric_limits<std::uint16_t>::max()) {
    throw WireError("codec: too many operands");
  }
  std::size_t size = 7;
  for (const auto& v : pred.operands()) size += value_size(v);
  return size;
}

void write_predicate(const Predicate& pred, Fields& out) {
  out.le(pred.attribute().value());
  out.u8(static_cast<std::uint8_t>(pred.op()));
  out.le(static_cast<std::uint16_t>(pred.operands().size()));
  for (const auto& v : pred.operands()) write_value(v, out);
}

}  // namespace

void encode_predicate(const Predicate& pred, WireWriter& out) {
  Fields fields(out.extend(predicate_size(pred)));
  write_predicate(pred, fields);
}

Predicate decode_predicate(WireReader& in) {
  const AttributeId attr(in.get_u32());
  const std::uint8_t op_byte = in.get_u8();
  if (op_byte >= kOpCount) throw WireError("codec: unknown operator");
  const auto op = static_cast<Op>(op_byte);
  const std::uint16_t count = in.get_u16();
  std::vector<Value> operands;
  // Cap by remaining bytes so a tiny hostile header can't reserve 64k slots.
  operands.reserve(std::min<std::size_t>(count, in.remaining()));
  for (std::uint16_t i = 0; i < count; ++i) operands.push_back(decode_value(in));
  switch (op) {
    case Op::Between:
      if (operands.size() != 2) throw WireError("codec: between needs two operands");
      return Predicate(attr, std::move(operands[0]), std::move(operands[1]));
    case Op::In:
      if (operands.empty()) throw WireError("codec: in needs operands");
      return Predicate(attr, std::move(operands));
    default:
      if (operands.size() != 1) throw WireError("codec: operator needs one operand");
      return Predicate(attr, op, std::move(operands[0]));
  }
}

void encode_tree(const Node& tree, WireWriter& out) {
  switch (tree.kind()) {
    case NodeKind::Leaf: {
      // The tag and the predicate in one extend.
      Fields fields(out.extend(1 + predicate_size(tree.predicate())));
      fields.u8(0);
      write_predicate(tree.predicate(), fields);
      return;
    }
    case NodeKind::And:
    case NodeKind::Or: {
      Fields fields(out.extend(3));
      fields.u8(tree.kind() == NodeKind::And ? 1 : 2);
      fields.le(static_cast<std::uint16_t>(tree.children().size()));
      for (const auto& c : tree.children()) encode_tree(*c, out);
      return;
    }
    case NodeKind::Not:
      out.put_u8(3);
      encode_tree(*tree.children()[0], out);
      return;
    case NodeKind::True:
    case NodeKind::False:
      // Stored trees are constant-free; constants never cross the wire.
      throw WireError("codec: constant node in wire tree");
  }
}

namespace {

// Wire trees are shallow (canonical forms are depth <= 3); a hostile buffer
// of nested connectives must not be able to overflow the decoder's stack.
constexpr std::size_t kMaxTreeDepth = 256;

std::unique_ptr<Node> decode_tree_at(WireReader& in, std::size_t depth) {
  if (depth > kMaxTreeDepth) throw WireError("codec: tree too deep");
  const std::uint8_t tag = in.get_u8();
  switch (tag) {
    case 0:
      return Node::leaf(decode_predicate(in));
    case 1:
    case 2: {
      const std::uint16_t count = in.get_u16();
      if (count == 0) throw WireError("codec: empty connective");
      std::vector<std::unique_ptr<Node>> children;
      // Each child needs at least one byte; don't let a hostile count
      // reserve far beyond what the buffer could possibly hold.
      children.reserve(std::min<std::size_t>(count, in.remaining()));
      for (std::uint16_t i = 0; i < count; ++i) {
        children.push_back(decode_tree_at(in, depth + 1));
      }
      return tag == 1 ? Node::and_(std::move(children))
                      : Node::or_(std::move(children));
    }
    case 3:
      return Node::not_(decode_tree_at(in, depth + 1));
    default:
      throw WireError("codec: unknown node tag");
  }
}

}  // namespace

std::unique_ptr<Node> decode_tree(WireReader& in) {
  return decode_tree_at(in, 0);
}

std::size_t encoded_size(const Event& event) {
  WireWriter w;
  encode_event(event, w);
  return w.size();
}

std::size_t encoded_size(const Node& tree) {
  WireWriter w;
  encode_tree(tree, w);
  return w.size();
}

}  // namespace dbsp
