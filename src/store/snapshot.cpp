#include "store/snapshot.hpp"

#include <array>
#include <utility>

namespace dbsp::store {

namespace {

/// Reserve per subscription when no previous body size is known: id,
/// accounting and a typical few-leaf tree.
constexpr std::size_t kSubscriptionBytesEstimate = 128;

}  // namespace

void sort_by_id(std::vector<SnapshotSub>& subs) {
  // LSD radix over the id's four bytes, skipping a byte every key shares
  // (the high ones, for ids below 2^24). The low word of a key is the
  // record's position, so the gather below moves each record once.
  const std::size_t n = subs.size();
  if (n < 2) return;
  std::vector<std::uint64_t> keys(n);
  std::vector<std::uint64_t> scratch(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<std::uint64_t>(subs[i].id.value()) << 32 | i;
  }
  for (unsigned shift = 32; shift < 64; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t k : keys) ++start[((k >> shift) & 0xFFu) + 1];
    if (start[((keys[0] >> shift) & 0xFFu) + 1] == n) continue;
    for (std::size_t b = 0; b < 256; ++b) start[b + 1] += start[b];
    for (const std::uint64_t k : keys) scratch[start[(k >> shift) & 0xFFu]++] = k;
    keys.swap(scratch);
  }
  std::vector<SnapshotSub> sorted;
  sorted.reserve(n);
  for (const std::uint64_t k : keys) sorted.push_back(subs[k & 0xFFFFFFFFu]);
  subs = std::move(sorted);
}

std::size_t write_snapshot(const std::string& path, std::uint64_t epoch,
                           const SnapshotData& data, bool sync, std::size_t size_hint) {
  WireWriter body;
  // Headroom over the previous size covers the table's growth since; the
  // pages beyond what is written are reserved, never touched.
  body.reserve(size_hint > 0 ? size_hint + size_hint / 8
                             : 4096 + data.subs.size() * kSubscriptionBytesEstimate);
  body.put_u64(epoch);
  body.put_u64(data.next_id);
  body.put_u64(data.next_seq);
  encode_schema(*data.schema, body);
  body.put_u64(data.subs.size());
  for (const SnapshotSub& sub : data.subs) {
    body.put_u32(sub.id.value());
    body.put_u64(sub.capacity);
    body.put_u64(sub.performed);
    encode_tree(*sub.tree, body);
  }
  if (data.stats != nullptr) {
    body.put_u8(1);
    WireWriter stats;
    data.stats->save(stats);
    body.put_u64(stats.size());
    body.put_bytes(stats.bytes());
  } else {
    body.put_u8(0);
  }

  WireWriter file;
  encode_wire_header(file);
  file.put_u8(static_cast<std::uint8_t>(FileKind::kSnapshot));
  file.put_u64(body.size());
  file.put_u32(crc32(body.bytes()));
  write_file_atomic(path, {file.bytes(), body.bytes()}, sync);
  return body.size();
}

LoadedSnapshot read_snapshot(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
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
  SubscriptionId::value_type prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    LoadedSub sub;
    sub.id = SubscriptionId(b.get_u32());
    if (!sub.id.valid() || (i > 0 && sub.id.value() <= prev)) {
      throw StoreError("store: snapshot subscriptions out of order");
    }
    prev = sub.id.value();
    sub.capacity = b.get_u64();
    sub.performed = b.get_u64();
    sub.tree = decode_tree(b);
    snap.subs.push_back(std::move(sub));
  }
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
  return snap;
}

}  // namespace dbsp::store
