#include "store/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace dbsp::store {

namespace {

/// Reserve per encoded subscription: id, accounting and a typical
/// few-leaf tree.
constexpr std::size_t kSubscriptionBytesEstimate = 128;
/// Room a read snapshot keeps for the next checkpoint to grow into.
constexpr std::size_t kImageHeadroom = 1 << 18;

}  // namespace

std::size_t build_snapshot(SnapshotImage& image,
                           std::span<const SubscriptionId::value_type> dirty,
                           std::uint64_t epoch, const SnapshotData& data) {
  // First the plan: the new file as pieces in order, each a run of records
  // kept from the image or a range of `fresh`, which holds everything
  // encoded now. Nothing is moved until all encoding is done.
  struct Piece {
    bool kept = false;
    std::uint64_t from = 0;  ///< in image.bytes when kept, else in fresh
    std::uint64_t size = 0;
  };
  std::vector<Piece> plan;
  WireWriter fresh;
  fresh.reserve(4096 + dirty.size() * kSubscriptionBytesEstimate);
  std::vector<SubscriptionId::value_type> ids;
  std::vector<std::uint64_t> offsets;
  ids.reserve(image.ids.size() + dirty.size());
  offsets.reserve(image.ids.size() + dirty.size() + 1);
  std::uint64_t size = 0;  // of the new file so far
  const auto add_fresh = [&](std::size_t from) {
    const std::uint64_t n = fresh.size() - from;
    if (!plan.empty() && !plan.back().kept) {
      plan.back().size += n;  // contiguous in fresh too
    } else {
      plan.push_back({false, from, n});
    }
    size += n;
  };

  encode_wire_header(fresh);
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
  add_fresh(0);

  std::size_t next = 0;  // first image record neither kept nor dropped yet
  // Keeps image records [next, end) as one run and indexes them.
  const auto keep_to = [&](std::size_t end) {
    if (next == end) return;
    const std::uint64_t from = image.offsets[next];
    const std::uint64_t n = image.offsets[end] - from;
    plan.push_back({true, from, n});
    ids.insert(ids.end(), image.ids.begin() + static_cast<std::ptrdiff_t>(next),
               image.ids.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t k = next; k < end; ++k) offsets.push_back(image.offsets[k] - from + size);
    size += n;
    next = end;
  };
  std::size_t encoded = 0;
  for (const SubscriptionId::value_type id : dirty) {
    const auto at = std::lower_bound(
        image.ids.begin() + static_cast<std::ptrdiff_t>(next), image.ids.end(), id);
    keep_to(static_cast<std::size_t>(at - image.ids.begin()));
    if (next < image.ids.size() && image.ids[next] == id) ++next;  // superseded
    const std::optional<SnapshotRecord> record = data.lookup(SubscriptionId(id));
    if (!record) continue;  // departed
    ids.push_back(id);
    offsets.push_back(size);
    const std::size_t from = fresh.size();
    fresh.put_u32(id);
    fresh.put_u64(record->capacity);
    fresh.put_u64(record->performed);
    encode_tree(*record->tree, fresh);
    add_fresh(from);
    ++encoded;
  }
  keep_to(image.ids.size());
  offsets.push_back(size);

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
  add_fresh(stats_at);
  fresh.patch_u64(count_at, ids.size());
  fresh.patch_u64(frame_at, size - body_at);

  // Then the moves, in one buffer. Destinations are disjoint and in the
  // order of their sources. A run moving left (or staying) only lands on
  // bytes whose runs already moved, so those go first, in order; a run
  // moving right only lands on bytes of later runs, so those go after, in
  // reverse order. The fresh ranges land last, on bytes no run needs.
  std::vector<std::uint8_t>& bytes = image.bytes;
  if (size > bytes.size()) {
    if (size > bytes.capacity()) bytes.reserve(size + size / 8);
    bytes.resize(size);
  }
  std::uint8_t* const base = bytes.data();
  std::vector<std::pair<std::uint64_t, const Piece*>> rightward;
  std::uint64_t to = 0;
  for (const Piece& piece : plan) {
    if (piece.kept && to < piece.from) {
      std::memmove(base + to, base + piece.from, piece.size);
    } else if (piece.kept && to > piece.from) {
      rightward.emplace_back(to, &piece);
    }
    to += piece.size;
  }
  for (auto it = rightward.rbegin(); it != rightward.rend(); ++it) {
    std::memmove(base + it->first, base + it->second->from, it->second->size);
  }
  to = 0;
  for (const Piece& piece : plan) {
    if (!piece.kept) std::memcpy(base + to, fresh.bytes().data() + piece.from, piece.size);
    to += piece.size;
  }
  bytes.resize(size);
  store_le(base + frame_at + 8, crc32(std::span(bytes).subspan(body_at)));
  image.ids = std::move(ids);
  image.offsets = std::move(offsets);
  return encoded;
}

LoadedSnapshot read_snapshot(const std::string& path) {
  // Headroom for the table's growth: the next checkpoint rewrites these
  // bytes in place.
  std::vector<std::uint8_t> bytes = read_file(path, kImageHeadroom);
  WireReader in(bytes);
  (void)decode_wire_header(in);
  if (in.get_u8() != static_cast<std::uint8_t>(FileKind::kSnapshot)) {
    throw StoreError("store: " + path + " is not a snapshot file");
  }
  const std::uint64_t len = in.get_u64();
  const std::uint32_t crc = in.get_u32();
  if (len != in.remaining()) {
    throw StoreError("store: truncated snapshot body in " + path);
  }
  const std::span<const std::uint8_t> body(bytes.data() + (bytes.size() - len), len);
  if (crc32(body) != crc) {
    throw StoreError("store: snapshot checksum mismatch in " + path);
  }

  WireReader b(body);
  LoadedSnapshot snap;
  snap.epoch = b.get_u64();
  snap.next_id = b.get_u64();
  snap.next_seq = b.get_u64();
  snap.schema = decode_schema(b);
  const std::uint64_t count = b.get_u64();
  // Each subscription needs at least id + capacity + performed + one tree
  // byte; reject hostile counts before reserving.
  if (count > b.remaining() / 21) {
    throw StoreError("store: snapshot subscription count exceeds input");
  }
  snap.subs.reserve(count);
  snap.image.ids.reserve(count);
  snap.image.offsets.reserve(count + 1);
  SubscriptionId::value_type prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    snap.image.offsets.push_back(bytes.size() - b.remaining());
    LoadedSub sub;
    sub.id = SubscriptionId(b.get_u32());
    if (!sub.id.valid() || (i > 0 && sub.id.value() <= prev)) {
      throw StoreError("store: snapshot subscriptions out of order");
    }
    prev = sub.id.value();
    sub.capacity = b.get_u64();
    sub.performed = b.get_u64();
    sub.tree = decode_tree(b);
    snap.image.ids.push_back(sub.id.value());
    snap.subs.push_back(std::move(sub));
  }
  snap.image.offsets.push_back(bytes.size() - b.remaining());
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
  // The verified file is the image the next checkpoint starts from.
  snap.image.bytes = std::move(bytes);
  return snap;
}

}  // namespace dbsp::store
