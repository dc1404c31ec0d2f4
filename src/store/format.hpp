#pragma once

/// \file
/// Shared on-disk format of the durable state store (src/store/). Both
/// store files open with the routing/codec wire header (magic + format
/// version, so the format is evolvable) followed by a file-kind byte;
/// all payloads reuse the codec's value/tree encodings:
///
///   WAL      := wire-header, kind u8 (1), record*
///   record   := len u32, crc32 u32, payload[len]
///   payload  := type u8, body   (see RecordType)
///   snapshot := magic u8, version u8 (kSnapshotFormatVersion), kind u8 (2),
///               len u64, crc32 u32, body[len], segment*
///   segment  := len u64, crc32 u32, payload[len]   (see store/snapshot.hpp)
///
/// Every record, the snapshot body and every segment carry a CRC-32 so
/// truncation and bit-flips surface as clean StoreErrors — never as
/// out-of-bounds reads or silently wrong state (store_corruption_test
/// fuzzes exactly this).

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "event/schema.hpp"
#include "routing/codec.hpp"
#include "subscription/node.hpp"

namespace dbsp::store {

/// Raised on any store failure. io() distinguishes filesystem errors
/// (surfaced as ErrorCode::kIoError by the facade) from corrupt or
/// truncated content (ErrorCode::kDataLoss); not_found() marks the one
/// io-shaped case the facade reports as kNotFound (no store and
/// create_if_missing off).
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what, bool io = false)
      : std::runtime_error(what), io_(io) {}

  [[nodiscard]] static StoreError not_found(const std::string& what) {
    StoreError e(what, /*io=*/true);
    e.not_found_ = true;
    return e;
  }

  [[nodiscard]] bool io() const { return io_; }
  [[nodiscard]] bool not_found() const { return not_found_; }

 private:
  bool io_;
  bool not_found_ = false;
};

/// CRC-32 (IEEE 802.3 polynomial) — the per-record checksum. Slice-by-8:
/// eight bytes per step through eight constant 256-entry tables; the
/// result is that of the byte-at-a-time definition on every host.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// File kinds, written right after the wire header.
enum class FileKind : std::uint8_t { kWal = 1, kSnapshot = 2 };

/// Version byte of a snapshot file's header. Version 2 may carry segments
/// after the body; a binary that knows only version 1 refuses such a file
/// at its header (codec: unsupported version). Version-1 files, which end
/// with their body, still read. The WAL keeps kWireFormatVersion.
inline constexpr std::uint8_t kSnapshotFormatVersion = 2;

/// WAL record types: the subscription lifecycle plus statistics training.
enum class RecordType : std::uint8_t {
  kEpochHeader = 1,      ///< first record of every WAL: the epoch it extends
  kSubscribe = 2,        ///< sub id + the filter tree as registered
  kUnsubscribe = 3,      ///< sub id
  kPrune = 4,            ///< sub id + the tree after one pass's prunings (+ their count)
  kTrainCheckpoint = 5,  ///< serialized EventStats (selectivity/stats.hpp)
};

/// One decoded WAL record. `tree` is set for kSubscribe/kPrune, `stats`
/// (serialized EventStats bytes) for kTrainCheckpoint, `epoch` for
/// kEpochHeader, `prunings` for kPrune.
struct WalRecord {
  RecordType type = RecordType::kEpochHeader;
  std::uint64_t epoch = 0;
  SubscriptionId sub;
  std::uint32_t prunings = 1;
  std::unique_ptr<Node> tree;
  std::vector<std::uint8_t> stats;
};

// --- Record payload codecs ---------------------------------------------------

void encode_epoch_header(std::uint64_t epoch, WireWriter& out);
void encode_subscribe(SubscriptionId id, const Node& tree, WireWriter& out);
void encode_unsubscribe(SubscriptionId id, WireWriter& out);
/// `prunings` (>= 1) is how many prunings produced `tree` since the id's
/// previous record. A count of 1 is left out, so a single pruning encodes
/// as the bare id + tree.
void encode_prune(SubscriptionId id, const Node& tree, WireWriter& out,
                  std::uint32_t prunings = 1);
/// `stats` are the bytes produced by EventStats::save.
void encode_train_checkpoint(std::span<const std::uint8_t> stats, WireWriter& out);

/// Decodes one record payload (the bytes between two CRC frames). Throws
/// WireError/StoreError on malformed input, including trailing garbage.
[[nodiscard]] WalRecord decode_record(std::span<const std::uint8_t> payload);

// --- Schema codec ------------------------------------------------------------

void encode_schema(const Schema& schema, WireWriter& out);
[[nodiscard]] Schema decode_schema(WireReader& in);
/// Exact equality: same attributes, same order, same types.
[[nodiscard]] bool schemas_equal(const Schema& a, const Schema& b);

// --- File helpers ------------------------------------------------------------

/// Reads a whole file into one allocation, with room for `headroom` more
/// bytes; throws StoreError(io) when it cannot be opened/read.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path,
                                                  std::size_t headroom = 0);

/// Writes `path` atomically: the parts go to `path + ".tmp"` one after the
/// other (flushed, and fsync'd when `sync`), which is then renamed over
/// `path`. Readers never observe a half-written file.
void write_file_atomic(const std::string& path,
                       std::initializer_list<std::span<const std::uint8_t>> parts,
                       bool sync);

/// Single-buffer form of the above.
inline void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes,
                              bool sync) {
  write_file_atomic(path, {bytes}, sync);
}

/// True when every byte from `from` to the end of `bytes` is zero: the
/// tail a machine crash without fsync can leave where the file system
/// extended a file before its data reached the disk. Recovery treats it
/// as a torn tail; zeros followed by any other byte are damage.
[[nodiscard]] bool zero_tail(std::span<const std::uint8_t> bytes, std::size_t from);

/// Appends `bytes` to the existing file `path`, flushed (and fsync'd when
/// `sync`) before returning. A kill mid-append leaves a prefix of them.
void append_file(const std::string& path, std::span<const std::uint8_t> bytes, bool sync);

}  // namespace dbsp::store
