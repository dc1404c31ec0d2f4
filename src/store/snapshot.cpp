#include "store/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

namespace dbsp::store {

namespace {

/// Room a read snapshot keeps for the next compaction to grow into.
constexpr std::size_t kImageHeadroom = 1 << 18;
/// Bytes of a segment's frame header: len u64 + crc32 u32.
constexpr std::size_t kSegmentFrameBytes = 12;
/// Each subscription record needs at least id + capacity + performed + one
/// tree byte.
constexpr std::size_t kMinRecordBytes = 21;

bool by_id(const SegmentLog::Entry& a, const SegmentLog::Entry& b) { return a.id < b.id; }

/// Decodes one subscription record (as the body and segments hold it).
RecoveredSub decode_record_at(WireReader& in) {
  RecoveredSub sub;
  sub.id = SubscriptionId(in.get_u32());
  if (!sub.id.valid()) throw StoreError("store: snapshot record with invalid id");
  sub.capacity = in.get_u64();
  sub.performed = in.get_u64();
  sub.tree = decode_tree(in);
  return sub;
}

}  // namespace

std::size_t append_segment(SegmentLog& log,
                           std::span<const SubscriptionId::value_type> dirty,
                           std::uint64_t epoch, const SnapshotData& data) {
  WireWriter& out = log.bytes;
  const std::size_t frame_at = out.size();
  out.put_u64(0);  // payload length and CRC, filled in last
  out.put_u32(0);
  const std::size_t payload_at = out.size();
  out.put_u64(epoch);
  out.put_u64(data.next_id);
  out.put_u64(data.next_seq);
  const std::size_t count_at = out.size();
  out.put_u64(0);  // record count, filled in after the records
  std::vector<SubscriptionId::value_type> removed;
  std::size_t encoded = 0;
  for (const SubscriptionId::value_type id : dirty) {
    const std::optional<SnapshotRecord> record = data.lookup(SubscriptionId(id));
    if (!record) {
      removed.push_back(id);
      continue;
    }
    const std::size_t from = out.size();
    out.put_u32(id);
    out.put_u64(record->capacity);
    out.put_u64(record->performed);
    encode_tree(*record->tree, out);
    if (out.size() - from > std::numeric_limits<std::uint32_t>::max()) {
      throw StoreError("store: subscription record exceeds 4 GiB");
    }
    log.entries.push_back({id, static_cast<std::uint32_t>(out.size() - from), from});
    ++encoded;
  }
  out.patch_u64(count_at, encoded);
  out.put_u64(removed.size());
  for (const SubscriptionId::value_type id : removed) {
    out.put_u32(id);
    log.entries.push_back({id, 0, 0});
  }
  out.patch_u64(frame_at, out.size() - payload_at);
  out.patch_u32(frame_at + 8, crc32(std::span(out.bytes()).subspan(payload_at)));
  return encoded;
}

void build_snapshot(SnapshotImage& image, const SegmentLog& log, std::uint64_t epoch,
                    const SnapshotData& data, bool stats_changed) {
  // The latest entry of every id the segments name, ascending.
  std::vector<SegmentLog::Entry> changes = log.entries;
  std::stable_sort(changes.begin(), changes.end(), by_id);
  std::size_t latest = 0;
  for (std::size_t k = 0; k < changes.size(); ++k) {
    if (k + 1 < changes.size() && changes[k + 1].id == changes[k].id) continue;
    changes[latest++] = changes[k];
  }
  changes.resize(latest);

  // First the plan: the new file as pieces in order, each a run of records
  // kept from the image, a record copied from the segments, or a range of
  // `fresh`, which holds what is encoded now. Nothing is moved until all
  // encoding is done.
  enum class Source : std::uint8_t { kImage, kLog, kFresh };
  struct Piece {
    Source source = Source::kImage;
    std::uint64_t from = 0;  ///< in image.bytes, log.bytes or fresh
    std::uint64_t size = 0;
  };
  std::vector<Piece> plan;
  plan.reserve(2 * changes.size() + 3);  // a run before each change, header, stats
  WireWriter fresh;
  fresh.reserve(4096);
  std::vector<SubscriptionId::value_type> ids;
  std::vector<std::uint64_t> offsets;
  ids.reserve(image.ids.size() + changes.size());
  offsets.reserve(image.ids.size() + changes.size() + 1);
  std::uint64_t size = 0;  // of the new file so far
  const auto add = [&](Source source, std::uint64_t from, std::uint64_t n) {
    if (!plan.empty() && plan.back().source == source &&
        plan.back().from + plan.back().size == from) {
      plan.back().size += n;  // contiguous in the source too
    } else {
      plan.push_back({source, from, n});
    }
    size += n;
  };

  fresh.put_u8(kWireMagic);
  fresh.put_u8(kSnapshotFormatVersion);
  fresh.put_u8(static_cast<std::uint8_t>(FileKind::kSnapshot));
  const std::size_t frame_at = fresh.size();
  fresh.put_u64(0);  // body length and CRC, filled in last
  fresh.put_u32(0);
  const std::size_t body_at = fresh.size();
  fresh.put_u64(epoch);
  fresh.put_u64(data.next_id);
  fresh.put_u64(data.next_seq);
  encode_schema(*data.schema, fresh);
  const std::size_t count_at = fresh.size();
  fresh.put_u64(0);  // record count, filled in after the merge
  add(Source::kFresh, 0, fresh.size());

  std::size_t next = 0;  // first image record neither kept nor dropped yet
  // Keeps image records [next, end) as one run and indexes them.
  const auto keep_to = [&](std::size_t end) {
    if (next == end) return;
    const std::uint64_t from = image.offsets[next];
    for (std::size_t k = next; k < end; ++k) offsets.push_back(image.offsets[k] - from + size);
    ids.insert(ids.end(), image.ids.begin() + static_cast<std::ptrdiff_t>(next),
               image.ids.begin() + static_cast<std::ptrdiff_t>(end));
    add(Source::kImage, from, image.offsets[end] - from);
    next = end;
  };
  for (const SegmentLog::Entry& change : changes) {
    const auto at = std::lower_bound(
        image.ids.begin() + static_cast<std::ptrdiff_t>(next), image.ids.end(), change.id);
    keep_to(static_cast<std::size_t>(at - image.ids.begin()));
    if (next < image.ids.size() && image.ids[next] == change.id) ++next;  // superseded
    if (change.size == 0) continue;  // removed
    ids.push_back(change.id);
    offsets.push_back(size);
    add(Source::kLog, change.offset, change.size);
  }
  keep_to(image.ids.size());
  offsets.push_back(size);

  if (stats_changed || image.offsets.empty()) {
    const std::size_t stats_at = fresh.size();
    if (data.stats != nullptr) {
      fresh.put_u8(1);
      const std::size_t len_at = fresh.size();
      fresh.put_u64(0);
      data.stats->save(fresh);
      fresh.patch_u64(len_at, fresh.size() - len_at - 8);
    } else {
      fresh.put_u8(0);
    }
    add(Source::kFresh, stats_at, fresh.size() - stats_at);
  } else {
    const std::uint64_t stats_at = image.offsets.back();
    add(Source::kImage, stats_at, image.bytes.size() - stats_at);
  }
  fresh.patch_u64(count_at, ids.size());
  fresh.patch_u64(frame_at, size - body_at);

  // Then the moves, in one buffer. Destinations are disjoint and in the
  // order of their sources. A run moving left (or staying) only lands on
  // bytes whose runs already moved, so those go first, in order; a run
  // moving right only lands on bytes of later runs, so those go after, in
  // reverse order. The copies land last, on bytes no run needs.
  std::vector<std::uint8_t>& bytes = image.bytes;
  if (size > bytes.size()) {
    if (size > bytes.capacity()) bytes.reserve(size + size / 8);
    bytes.resize(size);
  }
  std::uint8_t* const base = bytes.data();
  std::vector<std::pair<std::uint64_t, const Piece*>> rightward;
  std::uint64_t to = 0;
  for (const Piece& piece : plan) {
    if (piece.source == Source::kImage && to < piece.from) {
      std::memmove(base + to, base + piece.from, piece.size);
    } else if (piece.source == Source::kImage && to > piece.from) {
      rightward.emplace_back(to, &piece);
    }
    to += piece.size;
  }
  for (auto it = rightward.rbegin(); it != rightward.rend(); ++it) {
    std::memmove(base + it->first, base + it->second->from, it->second->size);
  }
  to = 0;
  for (const Piece& piece : plan) {
    if (piece.source == Source::kFresh) {
      std::memcpy(base + to, fresh.bytes().data() + piece.from, piece.size);
    } else if (piece.source == Source::kLog) {
      std::memcpy(base + to, log.bytes.bytes().data() + piece.from, piece.size);
    }
    to += piece.size;
  }
  bytes.resize(size);
  store_le(base + frame_at + 8, crc32(std::span(bytes).subspan(body_at)));
  image.ids = std::move(ids);
  image.offsets = std::move(offsets);
}

LoadedSnapshot read_snapshot(const std::string& path) {
  // Headroom for the table's growth: the next compaction rewrites these
  // bytes in place.
  std::vector<std::uint8_t> bytes = read_file(path, kImageHeadroom);
  WireReader in(bytes);
  if (in.get_u8() != kWireMagic) throw WireError("codec: bad magic byte");
  LoadedSnapshot snap;
  snap.version = in.get_u8();
  if (snap.version == 0 || snap.version > kSnapshotFormatVersion) {
    throw StoreError("store: unsupported snapshot format version " +
                     std::to_string(snap.version) + " in " + path);
  }
  if (in.get_u8() != static_cast<std::uint8_t>(FileKind::kSnapshot)) {
    throw StoreError("store: " + path + " is not a snapshot file");
  }
  const std::uint64_t len = in.get_u64();
  const std::uint32_t crc = in.get_u32();
  // Version 1 ends with the body; later versions may append segments.
  if (len > in.remaining() || (snap.version < 2 && len != in.remaining())) {
    throw StoreError("store: truncated snapshot body in " + path);
  }
  const std::size_t body_at = bytes.size() - in.remaining();
  const std::size_t base_end = body_at + static_cast<std::size_t>(len);
  const std::span<const std::uint8_t> body(bytes.data() + body_at, len);
  if (crc32(body) != crc) {
    throw StoreError("store: snapshot checksum mismatch in " + path);
  }

  WireReader b(body);
  snap.epoch = b.get_u64();
  snap.next_id = b.get_u64();
  snap.next_seq = b.get_u64();
  snap.schema = decode_schema(b);
  const std::uint64_t count = b.get_u64();
  // Reject hostile counts before reserving.
  if (count > b.remaining() / kMinRecordBytes) {
    throw StoreError("store: snapshot subscription count exceeds input");
  }
  snap.subs.reserve(count);
  snap.image.ids.reserve(count);
  snap.image.offsets.reserve(count + 1);
  for (std::uint64_t i = 0; i < count; ++i) {
    snap.image.offsets.push_back(base_end - b.remaining());
    RecoveredSub sub = decode_record_at(b);
    if (i > 0 && sub.id.value() <= snap.subs.back().id.value()) {
      throw StoreError("store: snapshot subscriptions out of order");
    }
    snap.image.ids.push_back(sub.id.value());
    snap.subs.push_back(std::move(sub));
  }
  snap.image.offsets.push_back(base_end - b.remaining());
  const std::uint8_t stats_flag = b.get_u8();
  if (stats_flag > 1) throw StoreError("store: bad snapshot stats flag");
  if (stats_flag == 1) {
    const std::uint64_t stats_len = b.get_u64();
    if (stats_len != b.remaining()) {
      throw StoreError("store: truncated snapshot statistics in " + path);
    }
    snap.stats.assign(body.end() - static_cast<std::ptrdiff_t>(stats_len),
                      body.end());
  } else if (!b.exhausted()) {
    throw StoreError("store: trailing bytes in snapshot body");
  }

  // The segments, in epoch order. Each record they hold is a change to the
  // table; a null tree marks a removal.
  std::vector<RecoveredSub> changes;
  std::size_t pos = base_end;
  while (pos < bytes.size()) {
    const std::size_t left = bytes.size() - pos;
    std::uint64_t seg_len = 0;
    std::uint32_t seg_crc = 0;
    if (left >= kSegmentFrameBytes) {
      WireReader frame(std::span<const std::uint8_t>(bytes.data() + pos, kSegmentFrameBytes));
      seg_len = frame.get_u64();
      seg_crc = frame.get_u32();
    }
    if (left < kSegmentFrameBytes || seg_len > left - kSegmentFrameBytes ||
        zero_tail(bytes, pos)) {
      // A kill mid-append left a partial final segment, or a machine crash
      // left the appended range zero-filled. The file before it is
      // consistent; only the unacknowledged checkpoint is lost.
      snap.torn_tail = true;
      break;
    }
    const std::size_t payload_at = pos + kSegmentFrameBytes;
    const std::span<const std::uint8_t> payload(bytes.data() + payload_at, seg_len);
    if (crc32(payload) != seg_crc) {
      throw StoreError("store: snapshot segment checksum mismatch in " + path);
    }
    WireReader p(payload);
    const std::uint64_t epoch = p.get_u64();
    if (epoch != snap.epoch + 1) {
      throw StoreError("store: snapshot segment out of epoch order in " + path);
    }
    snap.epoch = epoch;
    snap.next_id = p.get_u64();
    snap.next_seq = p.get_u64();
    const std::uint64_t records = p.get_u64();
    if (records > p.remaining() / kMinRecordBytes) {
      throw StoreError("store: segment record count exceeds input");
    }
    const std::size_t first = changes.size();
    for (std::uint64_t i = 0; i < records; ++i) {
      const std::size_t at = payload_at + (payload.size() - p.remaining());
      RecoveredSub sub = decode_record_at(p);
      if (i > 0 && sub.id.value() <= changes.back().id.value()) {
        throw StoreError("store: segment records out of order");
      }
      const std::size_t end = payload_at + (payload.size() - p.remaining());
      snap.segments.entries.push_back({sub.id.value(), static_cast<std::uint32_t>(end - at),
                                       at - base_end});
      changes.push_back(std::move(sub));
    }
    const std::uint64_t removed = p.get_u64();
    if (removed > p.remaining() / 4) {
      throw StoreError("store: segment removal count exceeds input");
    }
    SubscriptionId::value_type prev = 0;
    for (std::uint64_t i = 0; i < removed; ++i) {
      RecoveredSub gone;
      gone.id = SubscriptionId(p.get_u32());
      const bool recorded = std::binary_search(
          changes.begin() + static_cast<std::ptrdiff_t>(first),
          changes.begin() + static_cast<std::ptrdiff_t>(first + records), gone,
          [](const RecoveredSub& a, const RecoveredSub& c) { return a.id < c.id; });
      if (!gone.id.valid() || (i > 0 && gone.id.value() <= prev) || recorded) {
        throw StoreError("store: bad segment removal");
      }
      prev = gone.id.value();
      snap.segments.entries.push_back({prev, 0, 0});
      changes.push_back(std::move(gone));
    }
    if (!p.exhausted()) throw StoreError("store: trailing bytes in snapshot segment");
    pos = payload_at + seg_len;
  }
  snap.clean_bytes = pos;

  if (!changes.empty()) {
    // Apply the latest change of every id, in one merge with the base.
    std::stable_sort(changes.begin(), changes.end(),
                     [](const RecoveredSub& a, const RecoveredSub& c) { return a.id < c.id; });
    std::vector<RecoveredSub> merged;
    merged.reserve(snap.subs.size() + changes.size());
    std::size_t i = 0;
    for (std::size_t k = 0; k < changes.size(); ++k) {
      if (k + 1 < changes.size() && changes[k + 1].id == changes[k].id) continue;
      while (i < snap.subs.size() && snap.subs[i].id < changes[k].id) {
        merged.push_back(std::move(snap.subs[i++]));
      }
      if (i < snap.subs.size() && snap.subs[i].id == changes[k].id) ++i;
      if (changes[k].tree != nullptr) merged.push_back(std::move(changes[k]));
    }
    while (i < snap.subs.size()) merged.push_back(std::move(snap.subs[i++]));
    snap.subs = std::move(merged);
  }
  // The verified base is the image the next compaction starts from; the
  // complete segments after it are the log it folds in.
  snap.segments.bytes.put_bytes(
      std::span<const std::uint8_t>(bytes.data() + base_end, pos - base_end));
  bytes.resize(base_end);
  snap.image.bytes = std::move(bytes);
  return snap;
}

}  // namespace dbsp::store
