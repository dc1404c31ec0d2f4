#pragma once

/// \file
/// Snapshots of the durable state store. A snapshot file is a base — one
/// CRC-framed body capturing the full subscription table (current, possibly
/// pruned trees plus pruning accounting), the trained EventStats, and the
/// id/sequence counters — followed by the segments appended since:
///
///   segment := len u64, crc32 u32, payload[len]
///   payload := epoch u64, next_id u64, next_seq u64,
///              count u64, record[count], removed u64, id u32[removed]
///   record  := id u32, capacity u64, performed u64, tree   (as in the body)
///
/// A routine checkpoint appends one segment: the records of the ids WAL
/// records named since the previous checkpoint, ascending, and the ones
/// among them that are no longer live. Segments carry no statistics. Each
/// one supersedes every WAL record of earlier epochs; after one is written
/// the WAL is truncated to a fresh epoch. Recovery applies them to the base
/// in epoch order.
///
/// A compaction folds the segments into a new base: build_snapshot keeps
/// every record of the previous base, in place, whose id no segment names,
/// and copies the latest segment record of every other id. It encodes no
/// record itself, and its bytes are those of a full encode of the table.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "selectivity/stats.hpp"
#include "store/format.hpp"

namespace dbsp::store {

/// One live subscription as a checkpoint encodes it (borrowing its tree).
struct SnapshotRecord {
  std::size_t capacity = 0;    ///< pruning capacity at original registration
  std::size_t performed = 0;   ///< prunings applied so far
  const Node* tree = nullptr;  ///< current (possibly pruned) tree
};

/// What a checkpoint reads from the store's owner: the counters, the
/// trained statistics, and the current state of one subscription id.
struct SnapshotData {
  const Schema* schema = nullptr;
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  const EventStats* stats = nullptr;  ///< nullptr = not trained yet
  /// The id's current record, or nullopt when it is not live. Called only
  /// for the ids WAL records named since the previous checkpoint.
  std::function<std::optional<SnapshotRecord>(SubscriptionId)> lookup;
};

/// Bytes of a snapshot file before its body: wire header, kind, body
/// length and CRC.
inline constexpr std::size_t kSnapshotHeaderBytes = kWireHeaderBytes + 1 + 8 + 4;

/// The bytes of one base (header, then the CRC-framed body) plus an
/// ascending-id index of the subscription records in them.
struct SnapshotImage {
  std::vector<std::uint8_t> bytes;
  std::vector<SubscriptionId::value_type> ids;  ///< ascending
  /// Record k spans [offsets[k], offsets[k + 1]) of `bytes`: one entry
  /// more than `ids`, none for an image that was never built.
  std::vector<std::uint64_t> offsets;

  /// Length of the CRC-framed body (0 for an image never built).
  [[nodiscard]] std::uint64_t body_bytes() const {
    return bytes.size() > kSnapshotHeaderBytes ? bytes.size() - kSnapshotHeaderBytes : 0;
  }
};

/// The segments written after a base, byte for byte as they follow its
/// body on disk, plus where each subscription record in them lies.
struct SegmentLog {
  /// One id a segment names: its record spans [offset, offset + size) of
  /// `bytes`; size 0 marks an id the segment removes.
  struct Entry {
    SubscriptionId::value_type id = 0;
    std::uint32_t size = 0;
    std::uint64_t offset = 0;
  };
  WireWriter bytes;
  std::vector<Entry> entries;  ///< in the order the segments name them
};

/// One subscription as read back: from a snapshot, then with the WAL
/// replayed over it.
struct RecoveredSub {
  SubscriptionId id;
  std::size_t capacity = 0;   ///< pruning capacity at original registration
  std::size_t performed = 0;  ///< prunings applied before the crash
  std::unique_ptr<Node> tree;  ///< current (possibly pruned) tree
};

/// A snapshot file as read: the table its base and segments hold (the
/// counters and epoch of the last segment), and the base and segments
/// themselves, for the next checkpoint to build on.
struct LoadedSnapshot {
  std::uint64_t epoch = 0;
  Schema schema;
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  std::vector<RecoveredSub> subs;       ///< ascending id
  std::vector<std::uint8_t> stats;   ///< serialized EventStats; empty = untrained
  std::uint8_t version = 0;          ///< of the file's header
  SnapshotImage image;               ///< the base as read, indexed
  SegmentLog segments;               ///< the complete segments after it
  /// True when the file ends in an incomplete segment — a kill mid-append.
  /// The file's first `clean_bytes` hold the base and complete segments;
  /// the owner truncates it there before appending.
  bool torn_tail = false;
  std::uint64_t clean_bytes = 0;
};

/// Appends the epoch-`epoch` segment to `log`: the counters, a record for
/// each id of `dirty` (ascending, duplicate-free) that data.lookup finds
/// live, and the others as removed. Returns the number of records encoded.
std::size_t append_segment(SegmentLog& log,
                           std::span<const SubscriptionId::value_type> dirty,
                           std::uint64_t epoch, const SnapshotData& data);

/// Turns `image`, the previous base, into the epoch-`epoch` base, in place,
/// folding in the segments of `log`: an id they name takes its latest
/// record from them, or is dropped when that one removes it. The runs of
/// base records between those ids keep their bytes and only move (one
/// memmove a run, none for the runs before the first change). Counters and
/// schema are encoded anew; the statistics too when `stats_changed`,
/// otherwise they keep the base's bytes. Nothing in `image` changes when
/// the encoding throws.
void build_snapshot(SnapshotImage& image, const SegmentLog& log, std::uint64_t epoch,
                    const SnapshotData& data, bool stats_changed);

/// Reads and CRC-verifies a snapshot file, base and segments. A final
/// segment that runs past end-of-file is a torn append: the file up to it
/// is returned with `torn_tail` set. Throws StoreError/WireError on any
/// other truncation or corruption.
[[nodiscard]] LoadedSnapshot read_snapshot(const std::string& path);

}  // namespace dbsp::store
