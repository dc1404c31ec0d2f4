#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "event/event.hpp"
#include "subscription/node.hpp"

namespace dbsp {

/// Raised when decoding hits truncated or malformed input.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Little-endian binary wire format of the broker protocol. The simulated
/// network charges exactly these encoded sizes; a socket-based transport
/// would ship these bytes as-is.
///
/// Layout (all integers little-endian):
///   header  := magic u8 (0xDB), version u8 (1..kWireFormatVersion)
///   value   := tag u8 (0 int | 1 double | 2 string | 3 bool) payload
///   event   := count u16, (attr u32, value)*
///   pred    := attr u32, op u8, operand-count u16, value*
///   tree    := kind u8 (0 leaf | 1 and | 2 or | 3 not), leaf: pred,
///              and/or: count u16 + children, not: child
///
/// Every message and durable file (WAL, snapshot) starts with the 2-byte
/// header; decoders reject unknown versions with a clean WireError so the
/// format can evolve without old readers misparsing new bytes.

/// The magic byte opening every wire header.
inline constexpr std::uint8_t kWireMagic = 0xDB;
/// Current format version. Bump when the encoding of any payload changes;
/// decode_wire_header rejects anything newer (or version 0).
inline constexpr std::uint8_t kWireFormatVersion = 1;
/// Bytes added by encode_wire_header (magic + version).
inline constexpr std::size_t kWireHeaderBytes = 2;

/// Stores `v`'s little-endian bytes at `out`, whatever the host order (the
/// shifts compile to one store on little-endian hosts).
template <class T>
inline void store_le(std::uint8_t* out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

class WireWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  void put_string(const std::string& s);

  /// Appends `n` bytes for the caller to fill in and returns where they
  /// start: one capacity check for a whole group of fields. The pointer is
  /// valid until the next write.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    if (buf_.capacity() - buf_.size() < n) grow(n);
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  /// Reserves room for `bytes` more bytes, so a large message of known
  /// approximate size is not built by repeated doubling.
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  /// Overwrites the four bytes at `offset` (already written) with `v`,
  /// little-endian: fills in a length or checksum placeholder. Throws
  /// std::out_of_range past the end.
  void patch_u32(std::size_t offset, std::uint32_t v) { patch_le(offset, v); }
  /// patch_u32 for an eight-byte field.
  void patch_u64(std::size_t offset, std::uint64_t v) { patch_le(offset, v); }
  /// Drops the contents but keeps the capacity, for a reused buffer.
  void clear() { buf_.clear(); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void put_le(T v) {
    store_le(extend(sizeof(T)), v);
  }
  template <class T>
  void patch_le(std::size_t offset, T v) {
    if (offset > buf_.size() || buf_.size() - offset < sizeof(T)) {
      throw std::out_of_range("WireWriter: patch past the end");
    }
    store_le(buf_.data() + offset, v);
  }
  /// Doubles the capacity (at least to `bytes` more) out of line, so the
  /// inlined extend() never reallocates.
  void grow(std::size_t bytes);

  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_string();

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Default ceiling of FrameAssembler: no legitimate message (event, tree,
/// or batch) comes close to 1 MiB, so anything larger is hostile or
/// corrupt and is rejected before a single byte is buffered for it.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// Incremental assembler for u32-length-prefixed frames arriving as an
/// arbitrary byte stream (the socket transport's read path). WireReader
/// assumes it sees whole messages and treats underflow as corruption; the
/// assembler sits in front of it and buffers stream fragments until a
/// complete frame is available, so a read that stops mid-frame — at *any*
/// byte boundary, even inside the length prefix — resumes cleanly on the
/// next push().
///
/// Hostile-input contract: a zero or over-limit length prefix throws
/// WireError immediately (before buffering the alleged payload), which
/// caps the memory any peer can pin to max_frame + one read buffer. After
/// a throw the stream is unrecoverable by design — framing is lost — and
/// the owner must drop the connection.
class FrameAssembler {
 public:
  explicit FrameAssembler(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_(max_frame_bytes) {}

  /// Appends raw stream bytes (no alignment with frame boundaries needed).
  void push(std::span<const std::uint8_t> bytes);

  /// Returns the payload of the next complete frame (length prefix
  /// stripped), or nullopt when more bytes are needed. Throws WireError on
  /// a zero or over-limit length prefix.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next();

  /// Bytes buffered but not yet returned by next().
  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }
  [[nodiscard]] std::size_t max_frame_bytes() const { return max_frame_; }

 private:
  std::size_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_ (compacted lazily)
};

/// Appends one length-prefixed frame (u32 LE length + payload) to `out` —
/// the encoding FrameAssembler::next() reverses. Throws WireError when the
/// payload is empty or exceeds max_frame_bytes.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload,
                  std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Writes the 2-byte header: magic + kWireFormatVersion.
void encode_wire_header(WireWriter& out);
/// Reads and validates a header; returns the (accepted) format version.
/// Throws WireError on a wrong magic byte or a version this build cannot
/// decode (0 or newer than kWireFormatVersion).
[[nodiscard]] std::uint8_t decode_wire_header(WireReader& in);

void encode_value(const Value& value, WireWriter& out);
[[nodiscard]] Value decode_value(WireReader& in);

void encode_event(const Event& event, WireWriter& out);
[[nodiscard]] Event decode_event(WireReader& in);

void encode_predicate(const Predicate& pred, WireWriter& out);
[[nodiscard]] Predicate decode_predicate(WireReader& in);

void encode_tree(const Node& tree, WireWriter& out);
[[nodiscard]] std::unique_ptr<Node> decode_tree(WireReader& in);

/// Exact encoded sizes (used for the simulated network's byte accounting).
[[nodiscard]] std::size_t encoded_size(const Event& event);
[[nodiscard]] std::size_t encoded_size(const Node& tree);

}  // namespace dbsp
