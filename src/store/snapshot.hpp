#pragma once

/// \file
/// Compacted snapshots of the durable state store: one CRC-framed body
/// capturing the full subscription table (current, possibly pruned trees
/// plus pruning accounting), the trained EventStats, and the id/sequence
/// counters. A snapshot supersedes every WAL record of earlier epochs;
/// after one is written the WAL is truncated to a fresh epoch.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "selectivity/stats.hpp"
#include "store/format.hpp"

namespace dbsp::store {

/// One subscription as captured by a snapshot writer (borrowing views of
/// live engine state).
struct SnapshotSub {
  SubscriptionId id;
  std::size_t capacity = 0;   ///< pruning capacity at original registration
  std::size_t performed = 0;  ///< prunings applied so far
  const Node* tree = nullptr;  ///< current (possibly pruned) tree
};

/// Borrowed view of everything a snapshot captures.
struct SnapshotData {
  const Schema* schema = nullptr;
  std::uint64_t next_id = 0;
  std::uint64_t next_seq = 0;
  std::vector<SnapshotSub> subs;      ///< ascending id
  const EventStats* stats = nullptr;  ///< nullptr = not trained yet
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
};

/// Sorts a snapshot's subscriptions into ascending id order: a radix sort
/// of (id, position) keys, then one gather of the records.
void sort_by_id(std::vector<SnapshotSub>& subs);

/// Writes a snapshot atomically (via format.hpp's tmp + rename) and
/// returns its body size. The body is reserved up front, from `size_hint`
/// (the previous body's size) when given, else from a per-subscription
/// estimate, so a large body is not built by doubling.
std::size_t write_snapshot(const std::string& path, std::uint64_t epoch,
                           const SnapshotData& data, bool sync,
                           std::size_t size_hint = 0);

/// Reads and CRC-verifies a snapshot. Throws StoreError/WireError on any
/// truncation or corruption.
[[nodiscard]] LoadedSnapshot read_snapshot(const std::string& path);

}  // namespace dbsp::store
