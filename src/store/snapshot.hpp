#pragma once

/// \file
/// Compacted snapshots of the durable state store: one CRC-framed body
/// capturing the full subscription table (current, possibly pruned trees
/// plus pruning accounting), the trained EventStats, and the id/sequence
/// counters. A snapshot supersedes every WAL record of earlier epochs;
/// after one is written the WAL is truncated to a fresh epoch.
///
/// A snapshot is built from the previous one: between two checkpoints only
/// the ids named by WAL records can change, so build_snapshot keeps every
/// other record's bytes of the previous image, in place, and encodes only
/// those ids. The bytes are the same as a full encode of the table.

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
  /// for the ids WAL records named since the previous snapshot.
  std::function<std::optional<SnapshotRecord>(SubscriptionId)> lookup;
};

/// The bytes of one snapshot file (header, then the CRC-framed body) plus
/// an ascending-id index of the subscription records in them.
struct SnapshotImage {
  std::vector<std::uint8_t> bytes;
  std::vector<SubscriptionId::value_type> ids;  ///< ascending
  /// Record k spans [offsets[k], offsets[k + 1]) of `bytes`: one entry
  /// more than `ids`, none for an image that was never built.
  std::vector<std::uint64_t> offsets;
};

/// Owned equivalent produced by a snapshot reader.
struct LoadedSub {
  SubscriptionId id;
  std::size_t capacity = 0;
  std::size_t performed = 0;
  std::unique_ptr<Node> tree;
};

struct LoadedSnapshot {
  std::uint64_t epoch = 0;
  Schema schema;
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  std::vector<LoadedSub> subs;       ///< ascending id
  std::vector<std::uint8_t> stats;   ///< serialized EventStats; empty = untrained
  SnapshotImage image;               ///< the file as read, indexed
};

/// Turns `image`, the previous snapshot, into the epoch-`epoch` one, in
/// place. `dirty` are the ascending, duplicate-free ids WAL records named
/// since: each one data.lookup finds live is encoded, every other one is
/// dropped. The runs of records between them keep their bytes and only
/// move (one memmove a run, none for the runs before the first change).
/// Counters, schema and statistics are encoded anew. Returns the number of
/// records encoded. Nothing in `image` changes when the encoding throws.
std::size_t build_snapshot(SnapshotImage& image,
                           std::span<const SubscriptionId::value_type> dirty,
                           std::uint64_t epoch, const SnapshotData& data);

/// Reads and CRC-verifies a snapshot. Throws StoreError/WireError on any
/// truncation or corruption.
[[nodiscard]] LoadedSnapshot read_snapshot(const std::string& path);

}  // namespace dbsp::store
