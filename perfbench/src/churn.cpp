// The churn_durable runner: PubSub::open on a pre-built store, with
// pruning and aggregation on. Set-up is recovery plus adopt() of every id;
// then a closed loop runs one tick of the soak scenario's churn process
// (subscribes and unsubscribes) before each single publish, so the same
// table serves writes beside reads. Set-up and loop are repeated on fresh
// copies of the store, the loop in equal segments.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "harness.hpp"
#include "scenario/churn.hpp"
#include "scenario/scenario_runner.hpp"

namespace pb {

using namespace dbsp;

namespace {

/// Checkpoint cadence of the measured runs (WAL records), fixed so every
/// segment takes the same few checkpoints: the recovered WAL tail is over
/// it, so the first subscribe of the warm-up checkpoints, and then about
/// every 340 churn ticks (one or two a second of the loop).
constexpr std::size_t kSnapshotEvery = 2048;
/// WAL records left after the pre-built store's checkpoint, so recovery
/// also replays a log tail.
constexpr std::size_t kTailSubscribes = 2000;
constexpr std::size_t kWarmupPublishes = 200;
constexpr std::size_t kCheckSteps = 10;

PubSubOptions churn_options() {
  PubSubOptions o;
  o.engine.shards = kShards;
  o.pruning = true;
  o.aggregation = true;
  return o;
}

StoreOptions store_options(const Table& t, const std::string& dir, std::size_t snapshot_every) {
  StoreOptions s;
  s.directory = dir;
  s.schema = t.schema();
  s.snapshot_every = snapshot_every;
  s.fsync = false;
  return s;
}

/// One registration of a table: id and current (possibly pruned) tree as
/// DSL text.
struct Registration {
  std::uint32_t id = 0;
  std::string text;
  bool operator==(const Registration&) const = default;
};

/// Every registration of `ps`, in ascending id order.
std::vector<Registration> table_of(const PubSub& ps) {
  std::vector<Registration> out;
  for (const SubscriptionId id : ps.subscription_ids()) {
    auto text = ps.subscription_text(id);
    out.push_back({id.value(), text.ok() ? std::move(text).value() : std::string()});
  }
  return out;
}

bool save_table(const std::vector<Registration>& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const Registration& r : table) {
    const auto size = static_cast<std::uint32_t>(r.text.size());
    out.write(reinterpret_cast<const char*>(&r.id), sizeof r.id);
    out.write(reinterpret_cast<const char*>(&size), sizeof size);
    out.write(r.text.data(), size);
  }
  return static_cast<bool>(out.flush());
}

std::vector<Registration> load_table(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<Registration> out;
  Registration r;
  std::uint32_t size = 0;
  while (in.read(reinterpret_cast<char*>(&r.id), sizeof r.id) &&
         in.read(reinterpret_cast<char*>(&size), sizeof size)) {
    r.text.resize(size);
    if (!in.read(r.text.data(), size)) throw std::runtime_error("churn: truncated table file");
    out.push_back(r);
  }
  return out;
}

/// The live registrations in arrival order. Departures pick a rank counted
/// from the newest; a Fenwick tree over the entries' live flags finds that
/// rank in O(log n). Erasing from a vector of 60k handles instead would
/// move about a quarter of them per departure: benchmark work inside the
/// measured loop, growing with the table.
class ArrivalOrder {
 public:
  struct Entry {
    SubscriptionHandle handle;
    SubscriptionId id;
    bool live = true;
  };

  void push(SubscriptionHandle handle, SubscriptionId id) {
    entries_.push_back({std::move(handle), id, true});
    ++live_;
    if (entries_.size() < tree_.size()) add(entries_.size(), 1);
    else rebuild(2 * entries_.size());
  }
  void clear() {
    entries_.clear();
    tree_.assign(1, 0);
    live_ = 0;
  }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// The live entry `from_newest` places before the newest one.
  [[nodiscard]] Entry& from_newest(std::size_t from_newest) {
    return entries_[find(static_cast<std::int64_t>(live_ - from_newest)) - 1];
  }
  void mark_departed(Entry& e) {
    e.live = false;
    --live_;
    add(static_cast<std::size_t>(&e - entries_.data()) + 1, -1);
  }

 private:
  void add(std::size_t p, std::int64_t d) {
    for (; p < tree_.size(); p += p & (~p + 1)) tree_[p] += d;
  }
  /// Smallest 1-based position whose prefix holds `k` live entries.
  [[nodiscard]] std::size_t find(std::int64_t k) const {
    std::size_t p = 0;
    for (std::size_t step = std::bit_floor(tree_.size() - 1); step > 0; step >>= 1) {
      if (p + step < tree_.size() && tree_[p + step] < k) {
        p += step;
        k -= tree_[p];
      }
    }
    return p + 1;
  }
  void rebuild(std::size_t capacity) {
    tree_.assign(capacity + 1, 0);
    for (std::size_t i = 1; i < tree_.size(); ++i) {
      if (i <= entries_.size() && entries_[i - 1].live) tree_[i] += 1;
      const std::size_t parent = i + (i & (~i + 1));
      if (parent < tree_.size()) tree_[parent] += tree_[i];
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::int64_t> tree_ = std::vector<std::int64_t>(1, 0);
  std::size_t live_ = 0;
};

/// Builds the store the measured set-ups recover: trained statistics, every
/// subscription, the pruning pass and one checkpoint, then a WAL tail of
/// arrivals and departures. The table it leaves behind is written to
/// `table_path`, for the recovered one to be compared with. Runs in a child
/// process so the driver's resident-set figures start clean. Returns false
/// when the child failed.
bool prebuild(const Table& t, const std::string& dir, const std::string& table_path) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    {
      auto opened = PubSub::open(store_options(t, dir, std::size_t{1} << 30), churn_options());
      if (!opened.ok()) ::_exit(3);
      std::optional<PubSub> ps(std::move(opened).value());
      std::vector<SubscriptionHandle> handles;
      if (!ps->train(t.train).ok()) code = 4;
      for (const auto& tree : t.trees) {
        auto h = ps->subscribe(tree->clone());
        if (!h.ok()) code = 5;
        else handles.push_back(std::move(h).value());
      }
      if (!ps->prune_to_fraction(kPruneFraction).ok()) code = 6;
      if (!ps->checkpoint().ok()) code = 7;
      for (std::size_t k = 0; k < kTailSubscribes; ++k) {
        auto h = ps->subscribe(t.fresh[k % t.fresh.size()]->clone());
        if (!h.ok()) code = 8;
        else if (k % 2 == 1 && !h.value().release().ok()) code = 9;
        else handles.push_back(std::move(h).value());
      }
      if (!save_table(table_of(*ps), table_path)) code = 10;
      ps.reset();  // a crash-like close: no checkpoint, the tail stays in the WAL
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

void run_churn(const Table& t, Ctx& c) {
  Report& rep = c.report;
  Tracer& tr = c.tracer;
  // The pre-built store stays as built; every set-up recovers a fresh copy.
  const std::string prebuilt_dir = c.args.work_dir + "/store-" + std::to_string(t.trees.size());
  const std::string dir = prebuilt_dir + "-live";
  const std::string table_path = prebuilt_dir + ".table";
  std::filesystem::remove_all(prebuilt_dir);
  std::filesystem::create_directories(prebuilt_dir);
  rep.attempted();
  if (!prebuild(t, prebuilt_dir, table_path)) {
    rep.failed();
    throw std::runtime_error("churn: building the store failed");
  }
  const std::vector<Registration> prebuilt = load_table(table_path);
  rep.check(prebuilt.size() == t.trees.size() + kTailSubscribes / 2,
            "churn: the pre-built table has the wrong size");

  // Originals by id as recovered: the table, then the tail (odd tail
  // arrivals departed again). Each segment adds its own arrivals.
  std::vector<const Node*> recovered_original;
  for (const auto& tree : t.trees) recovered_original.push_back(tree.get());
  for (std::size_t k = 0; k < kTailSubscribes; ++k) {
    recovered_original.push_back(k % 2 == 1 ? nullptr : t.fresh[k % t.fresh.size()].get());
  }

  std::uint64_t delivered = 0;
  bool capture = false;
  std::vector<SubscriptionId> captured;
  const PubSub::Callback on_notify = [&](const Notification& n) {
    ++delivered;
    if (capture) captured.push_back(n.subscription);
  };

  // --- Churn machinery ----------------------------------------------------------
  std::optional<PubSub> ps;
  ArrivalOrder live;
  std::vector<const Node*> original;
  // The repository's soak scenario's steady background churn: the warmup
  // phase of ScenarioConfig::soak at this table size (on 60k subscriptions
  // 3 Poisson arrivals and 3 departures per published event, departures
  // biased toward the newest arrivals).
  const ChurnConfig churn_config = ScenarioConfig::soak(t.trees.size(), 1).phases.front().churn;
  std::optional<ChurnProcess> churn;
  std::size_t next_fresh = kTailSubscribes;
  std::size_t next_event = 0;
  std::vector<double> subscribe_us;
  std::vector<double> unsubscribe_us;
  std::vector<double> publish_us;
  std::vector<double> publish_traced_us;
  bool traced_block = false;

  const auto subscribe_one = [&](bool timed) {
    const Node* tree = t.fresh[next_fresh++ % t.fresh.size()].get();
    auto copy = tree->clone();
    const auto a = Clock::now();
    auto h = ps->subscribe(std::move(copy), on_notify);
    const double us = us_between(a, Clock::now());
    rep.attempted();
    if (!h.ok()) {
      rep.failed();
      return;
    }
    if (timed) subscribe_us.push_back(us);
    const SubscriptionId id = h.value().id();
    if (original.size() <= id.value()) original.resize(id.value() + 1, nullptr);
    original[id.value()] = tree;
    live.push(std::move(h).value(), id);
  };
  const auto unsubscribe_one = [&](bool timed) {
    ArrivalOrder::Entry& victim = live.from_newest(churn->pick_victim(live.size()));
    const auto a = Clock::now();
    const Status st = victim.handle.release();
    const double us = us_between(a, Clock::now());
    rep.attempted();
    if (!st.ok()) rep.failed();
    if (timed) unsubscribe_us.push_back(us);
    original[victim.id.value()] = nullptr;
    live.mark_departed(victim);
  };
  const auto publish_one = [&](bool timed) {
    const Event& e = t.events[next_event++ % t.events.size()];
    const auto a = Clock::now();
    {
      auto span = tr.span_if(traced_block, "api.publish");
      ps->publish(e);
    }
    const auto b = Clock::now();
    rep.attempted();
    if (timed) (traced_block ? publish_traced_us : publish_us).push_back(us_between(a, b));
    return b;
  };
  // One event tick of the churn process, run before each publish.
  const auto churn_tick = [&](bool timed) {
    for (std::size_t n = churn->arrivals(); n > 0; --n) subscribe_one(timed);
    for (std::size_t n = churn->departures(); n > 0 && live.size() > 0; --n) unsubscribe_one(timed);
  };

  // Output checks under churn, outside the timed loop, then the
  // false-positive ratio on the table as the checks left it.
  double fp = 0;
  const auto check_and_measure_fp = [&] {
    for (std::size_t s = 0; s < kCheckSteps; ++s) {
      churn_tick(false);
      const Event& e = t.check[s % t.check.size()];
      captured.clear();
      capture = true;
      ps->publish(e);
      capture = false;
      rep.attempted();
      std::vector<std::uint32_t> got;
      for (const SubscriptionId id : captured) got.push_back(id.value());
      std::sort(got.begin(), got.end());
      std::vector<std::uint32_t> current;
      for (const ArrivalOrder::Entry& l : live.entries()) {
        if (!l.live) continue;
        const auto m = ps->matches(l.id, e);
        if (m.ok() && m.value()) current.push_back(l.id.value());
      }
      std::sort(current.begin(), current.end());
      rep.check(got == current, "churn: delivery differs from PubSub::matches over the live table");
      const auto exact = naive_matches(original, e);
      rep.check(std::includes(got.begin(), got.end(), exact.begin(), exact.end()),
                "churn: a delivery the naive oracle requires is missing");
    }
    ExactDeliveries exact(t.schema(), original, t.events);
    std::uint64_t ratio_delivered = 0;
    for (std::size_t k = 0; k < std::min(kRatioEvents, t.events.size()); ++k) {
      ratio_delivered += ps->publish(t.events[k]);
    }
    rep.attempted(std::min(kRatioEvents, t.events.size()));
    fp = false_positive_ratio(ratio_delivered, exact.total());
  };

  // --- Set-up and measured loop, repeated -------------------------------------
  // Each repeat recovers a fresh copy of the pre-built store (timed: open
  // plus adopt of every id; setup_s is the median of the repeats), warms up
  // and runs one segment of the closed loop, so every segment starts from
  // the same table and WAL tail. The segments pool their latency samples
  // and throughput blocks, as in inproc_prune. The output checks and the
  // false-positive ratio run in the first repeat, before its segment, on a
  // table that depends on the seed alone.
  const int repeats = c.probe ? 1 : kSetupRepeats;
  const double segment_s = c.seconds / repeats;
  const double rss_base = rss_mb();
  std::vector<double> setup_s;
  std::vector<double> open_s;
  std::vector<double> adopt_s;
  RateBlocks blocks(Clock::now(), segment_s / 4);
  std::uint64_t replayed_records = 0;
  std::uint64_t checkpoints_in_loop = 0;
  StoreStats store_before{};
  StoreStats store_after{};
  PubSub::AggregationStats agg_before{};
  PubSub::AggregationStats agg{};
  for (int r = 0; r < repeats; ++r) {
    ps.reset();  // first, so the live handles are inert when they are dropped
    live.clear();
    std::filesystem::remove_all(dir);
    std::filesystem::copy(prebuilt_dir, dir, std::filesystem::copy_options::recursive);
    std::vector<SubscriptionHandle> handles;
    const auto start = Clock::now();
    {
      auto span = tr.span("store.open");
      rep.attempted();
      auto opened = PubSub::open(store_options(t, dir, kSnapshotEvery), churn_options());
      if (!opened.ok()) {
        rep.failed();
        throw std::runtime_error("churn: open failed: " + opened.status().to_string());
      }
      ps.emplace(std::move(opened).value());
    }
    const auto opened_at = Clock::now();
    const std::vector<SubscriptionId> ids = ps->subscription_ids();
    handles.reserve(ids.size());
    {
      auto span = tr.span("api.adopt_all");
      for (const SubscriptionId id : ids) {
        auto h = ps->adopt(id, on_notify);
        rep.attempted();
        if (!h.ok()) {
          rep.failed();
          continue;
        }
        handles.push_back(std::move(h).value());
      }
    }
    const auto done = Clock::now();
    setup_s.push_back(s_between(start, done));
    open_s.push_back(s_between(start, opened_at));
    adopt_s.push_back(s_between(opened_at, done));
    rep.check(table_of(*ps) == prebuilt,
              "churn: the recovered table differs from the pre-built one");
    replayed_records = ps->store_stats().replayed_records;

    // Recovered ids ascend in arrival order.
    original = recovered_original;
    bool table_ok = true;
    for (std::size_t k = 0; k < handles.size(); ++k) {
      const SubscriptionId id = handles[k].id();
      table_ok = table_ok && id.value() < original.size() && original[id.value()] != nullptr;
      live.push(std::move(handles[k]), id);
    }
    rep.check(table_ok, "churn: the recovered table holds ids the store never kept");
    churn.emplace(churn_config, c.args.seed * 8 + 6 + (static_cast<std::uint64_t>(r) << 40));
    next_fresh = kTailSubscribes;
    for (std::size_t k = 0; k < kWarmupPublishes; ++k) {
      churn_tick(false);
      publish_one(false);
    }
    if (r == 0) check_and_measure_fp();

    store_before = ps->store_stats();
    agg_before = ps->aggregation_stats();
    const auto seg_start = Clock::now();
    const auto seg_end = seg_start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(segment_s));
    blocks.restart(seg_start);
    for (auto now = seg_start; now < seg_end;) {
      // In a traced run even quarter-second blocks record publish spans and
      // odd ones do not; the gap between their medians is the tracing overhead.
      traced_block = tr.enabled() && static_cast<long>(s_between(seg_start, now) * 4) % 2 == 0;
      churn_tick(true);
      now = publish_one(true);
      blocks.add(now);
    }
    traced_block = false;
    store_after = ps->store_stats();
    agg = ps->aggregation_stats();
    checkpoints_in_loop += store_after.snapshots_written - store_before.snapshots_written;
  }
  const double rss = peak_rss_mb() - rss_base;

  if (c.layers) {
    // Durable vs in-memory subscribe/unsubscribe on the same options,
    // alternating blocks; checkpoints; engine add/remove on a replica.
    std::vector<SubscriptionHandle> keep;  // inert once the replica is gone
    PubSub memory(t.schema(), churn_options());
    (void)memory.train(t.train);
    for (const auto& tree : t.trees) {
      auto h = memory.subscribe(tree->clone());
      if (h.ok()) keep.push_back(std::move(h).value());
    }
    std::vector<double> durable_us;
    std::vector<double> memory_us;
    for (int block = 0; block < (c.probe ? 4 : 10); ++block) {
      for (PubSub* p : {&*ps, &memory}) {
        for (std::size_t k = 0; k < 100; ++k) {
          const auto a = Clock::now();
          auto h = p->subscribe(t.fresh[k]->clone());
          (p == &memory ? memory_us : durable_us).push_back(us_between(a, Clock::now()));
          rep.check(h.ok() && h.value().release().ok(), "churn: replica churn failed");
        }
      }
    }
    std::vector<double> checkpoint_ms;
    for (int k = 0; k < 3; ++k) {
      auto span = tr.span("store.checkpoint");
      const auto a = Clock::now();
      rep.check(ps->checkpoint().ok(), "churn: checkpoint failed");
      checkpoint_ms.push_back(us_between(a, Clock::now()) / 1e3);
    }
    CoreReplica core(t, tr);
    std::vector<std::unique_ptr<Subscription>> extra;
    std::vector<double> add_us;
    std::vector<double> remove_us;
    for (std::size_t k = 0; k < 2000; ++k) {
      extra.push_back(std::make_unique<Subscription>(
          SubscriptionId(static_cast<SubscriptionId::value_type>(t.trees.size() + k)),
          t.fresh[k % t.fresh.size()]->clone()));
      auto a = Clock::now();
      {
        auto span = tr.span("core.add");
        core.engine.add(*extra.back());
      }
      add_us.push_back(us_between(a, Clock::now()));
      a = Clock::now();
      {
        auto span = tr.span("core.remove");
        core.engine.remove(extra.back()->id());
      }
      remove_us.push_back(us_between(a, Clock::now()));
    }
    // WAL and aggregation ratios over the last segment of the loop.
    const std::uint64_t ops = (store_after.wal_records - store_before.wal_records);
    const auto& a0 = agg_before.counters;
    const auto& a1 = agg.counters;
    const double probes = static_cast<double>(a1.events_probed - a0.events_probed);
    const double candidates = static_cast<double>(a1.candidates_evaluated - a0.candidates_evaluated);
    rep.metric("store.open_s", median(open_s), "s");
    rep.metric("api.adopt_s", median(adopt_s), "s");
    rep.metric("store.replayed_records", static_cast<double>(replayed_records), "count");
    rep.metric("store.subscribe_overhead_us", median(durable_us) - median(memory_us), "us");
    rep.metric("store.wal_bytes_per_op",
               ops > 0 ? static_cast<double>(store_after.wal_bytes - store_before.wal_bytes) /
                             static_cast<double>(ops)
                       : 0.0,
               "B");
    rep.metric("core.add_us", median(add_us), "us");
    rep.metric("core.remove_us", median(remove_us), "us");
    rep.metric("store.checkpoint_ms", median(checkpoint_ms), "ms");
    rep.metric("agg.decline_share",
               probes > 0 ? static_cast<double>(a1.probe_declines - a0.probe_declines) / probes : 0.0,
               "ratio");
    rep.metric("agg.candidate_precision",
               candidates > 0 ? static_cast<double>(a1.matches - a0.matches) / candidates : 0.0,
               "ratio");
    rep.metric("agg.subgroups", static_cast<double>(agg.subgroups), "count");
    if (!c.probe) {
      const double p50 = median(publish_us);
      rep.metric("bench.trace_overhead_pct",
                 p50 > 0 ? 100.0 * (median(publish_traced_us) - p50) / p50 : 0.0, "%");
    }
  }

  if (c.e2e) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("events_per_s", blocks.median_rate(), "events/s");
    rep.metric("publish_p50_us", quantile(publish_us, 0.5), "us");
    rep.metric("publish_p99_us", quantile(publish_us, 0.99), "us");
    rep.detail("subscribe_p50_us", median(subscribe_us));
    rep.detail("unsubscribe_p50_us", median(unsubscribe_us));
    rep.metric("false_positive_ratio", fp, "ratio");
    rep.metric("rss_mb", rss, "MiB");
    // Where the loop's time goes: the summed duration of each kind of call.
    const auto total_s = [](const std::vector<double>& v) {
      double sum = 0;
      for (const double x : v) sum += x;
      return sum / 1e6;
    };
    rep.detail("loop_publish_s", total_s(publish_us));
    rep.detail("loop_subscribe_s", total_s(subscribe_us));
    rep.detail("loop_unsubscribe_s", total_s(unsubscribe_us));
    rep.detail("publish_samples", static_cast<double>(publish_us.size()));
    rep.detail("subscribe_samples", static_cast<double>(subscribe_us.size()));
    rep.detail("unsubscribe_samples", static_cast<double>(unsubscribe_us.size()));
    rep.detail("setup_repeats", repeats);
    rep.detail("recovered_subscriptions", static_cast<double>(prebuilt.size()));
    rep.detail("checkpoints_in_loop", static_cast<double>(checkpoints_in_loop));
  }
  ps.reset();  // first, so the live handles are inert when they are dropped
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(prebuilt_dir);
  std::filesystem::remove(table_path);
}

}  // namespace pb
