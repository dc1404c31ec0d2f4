#include "api/pubsub.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/exposition.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/stats.hpp"
#include "subscription/parser.hpp"

namespace dbsp {

namespace api_detail {

struct SubEntry {
  std::unique_ptr<Subscription> sub;
  PubSub::Callback callback;
};

/// The facade's whole state. Held by the PubSub through a shared_ptr so
/// handles can observe its lifetime through weak_ptrs — a handle outliving
/// the PubSub degrades to explicit kUnavailable errors instead of UB.
///
/// `mutex` serializes every facade entry point (including the handle
/// paths), which is what makes the match-vs-churn exclusion contract of
/// the wrapped ShardedEngine — and the single-writer contract of the
/// StateStore — hold under concurrent callers. Everything mutable is
/// DBSP_GUARDED_BY(mutex), so under clang's thread-safety analysis a new
/// entry point that forgets the lock fails to compile; the runtime side
/// of the same contract is exercised by tests/concurrent_stress_test.cpp
/// under ThreadSanitizer. `schema` (and `options.engine`) are written
/// only during construction and immutable afterwards, so they are read
/// without the lock.
struct PubSubCore {
  PubSubCore(Schema schema_in, PubSubOptions options_in)
      : schema(std::move(schema_in)),
        options(options_in),
        stats(schema),
        engine(schema, options.engine) {
    if (options.pruning) {
      // Untrained statistics estimate every predicate at 0 presence; the
      // queues still work, train() upgrades the scores in place.
      stats.finalize();
      estimator.emplace(stats);
      pruning.emplace(engine, *estimator, options.prune);
    }
    if (options.metrics) {
      registry = std::make_shared<obs::MetricsRegistry>();
      publishes_total = &registry->counter("dbsp_publishes_total");
    }
    if (options.tracing) {
      // With a registry the recorder turns every head-sampled span into a
      // dbsp_stage_us observation — the facade's only timing path.
      recorder = std::make_shared<obs::FlightRecorder>(options.trace, registry);
    }
  }

  /// Immutable after construction (the facade is the schema authority).
  Schema schema;

  /// Serializes all facade state below. Declared before the guarded
  /// members so diagnostics can reference it; mutable so const observers
  /// (subscription_count, pruning_stats, ...) can lock too.
  mutable Mutex mutex;

  /// options.prune.dimension is rewritten by set_prune_dimension; the rest
  /// is construction-time configuration.
  PubSubOptions options DBSP_GUARDED_BY(mutex);
  EventStats stats DBSP_GUARDED_BY(mutex);
  std::optional<SelectivityEstimator> estimator DBSP_GUARDED_BY(mutex);
  /// Declared before engine/pruning: the owned Subscriptions must outlive
  /// both (they reference the trees), so they must be destroyed last.
  std::unordered_map<SubscriptionId::value_type, SubEntry> subs
      DBSP_GUARDED_BY(mutex);
  // References this->schema; PubSubCore never moves. Holding `mutex` across
  // every engine call is exactly the engine's external-serialization
  // contract — one writer OR one matching call at a time (match_batch still
  // fans out internally; its workers only read the index and each writes
  // its own match context).
  ShardedEngine engine DBSP_GUARDED_BY(mutex);
  std::optional<ShardedPruningSet> pruning DBSP_GUARDED_BY(mutex);

  /// Durable mode (PubSub::open). Fail-stop: the first append/checkpoint
  /// failure moves its Status into store_failure and drops the store, so
  /// the on-disk state stays a consistent prefix of history. The store is
  /// single-writer by contract; `mutex` is what serializes it.
  std::unique_ptr<store::StateStore> store DBSP_GUARDED_BY(mutex)
      DBSP_PT_GUARDED_BY(mutex);
  Status store_failure DBSP_GUARDED_BY(mutex);
  bool stats_trained DBSP_GUARDED_BY(mutex) = false;

  SubscriptionId::value_type next_id DBSP_GUARDED_BY(mutex) = 0;
  std::size_t callbacks_registered DBSP_GUARDED_BY(mutex) = 0;
  std::uint64_t next_seq DBSP_GUARDED_BY(mutex) = 0;

  std::vector<SubscriptionId> match_scratch DBSP_GUARDED_BY(mutex);
  std::vector<std::vector<SubscriptionId>> batch_scratch DBSP_GUARDED_BY(mutex);

  /// Observability (obs/metrics.hpp). All set once in the constructor and
  /// immutable afterwards, so they are read without the facade lock; the
  /// registry and its series are internally synchronized (lock-free on the
  /// record path). Null when options.metrics is off — the publish path
  /// then pays one branch per pointer check and nothing else.
  std::shared_ptr<obs::MetricsRegistry> registry;
  obs::Counter* publishes_total = nullptr;

  /// Per-event tracing (options.tracing): the flight recorder is shared so
  /// embedding layers (the net server) can join its export surface, and
  /// internally synchronized. The builder collects one in-flight trace at
  /// a time, which the facade lock already serializes.
  std::shared_ptr<obs::FlightRecorder> recorder;
  obs::TraceBuilder trace_builder DBSP_GUARDED_BY(mutex);

  /// Arms the trace builder for this publish when tracing is on: a
  /// propagated context joins the caller's trace; a fresh context is
  /// head-sampled here. Returns the builder or null.
  obs::TraceBuilder* begin_trace(obs::TraceContext& context)
      DBSP_REQUIRES(mutex) {
    if (recorder == nullptr) return nullptr;
    if (!context.active()) {
      context = obs::make_trace_context(recorder->should_sample());
    }
    trace_builder.begin(context);
    return &trace_builder;
  }

  /// Runs one durable-store operation; converts a throw into the fail-stop
  /// detach. Returns ok when not durable (in-memory mode logs nothing).
  template <class Fn>
  Status log_to_store(Fn&& fn) DBSP_REQUIRES(mutex) {
    if (!store) return Status();
    try {
      fn(*store);
      return Status();
    } catch (const store::StoreError& e) {
      store_failure = Status::error(
          e.io() ? ErrorCode::kIoError : ErrorCode::kDataLoss, e.what());
    } catch (const WireError& e) {
      store_failure = Status::error(ErrorCode::kDataLoss, e.what());
    }
    store.reset();
    return store_failure;
  }

  /// log_to_store for one WAL record — every facade append goes through
  /// here — under a kWalAppend span that joins the trace in flight (a
  /// prune pass) or opens its own single-span trace.
  template <class Fn>
  Status append_to_store(Fn&& fn) DBSP_REQUIRES(mutex) {
    if (!store) return Status();
    obs::TraceContext context;
    const bool joined = trace_builder.active();
    obs::TraceBuilder* tb = joined ? &trace_builder : begin_trace(context);
    Status logged;
    {
      obs::ScopedSpan span(tb, obs::TraceStage::kWalAppend);
      logged = log_to_store(std::forward<Fn>(fn));
    }
    if (tb != nullptr && !joined) tb->finish(*recorder);
    return logged;
  }

  /// What a checkpoint reads: the id/seq counters, the trained statistics,
  /// and a lookup of one subscription's current tree plus its pruning
  /// accounting (zeros with pruning off). The store calls the lookup only
  /// for the ids its WAL touched since the last snapshot.
  [[nodiscard]] store::SnapshotData snapshot_data() const DBSP_REQUIRES(mutex) {
    store::SnapshotData snap;
    snap.schema = &schema;
    snap.next_id = next_id;
    snap.next_seq = next_seq;
    snap.stats = stats_trained ? &stats : nullptr;
    snap.lookup = [this](SubscriptionId id) -> std::optional<store::SnapshotRecord> {
      mutex.assert_held();  // runs inside checkpoint(), under the lock
      const auto it = subs.find(id.value());
      if (it == subs.end()) return std::nullopt;
      store::SnapshotRecord record;
      record.tree = &it->second.sub->root();
      if (pruning) {
        if (const auto accounting = pruning->accounting(id)) {
          record.capacity = accounting->capacity;
          record.performed = accounting->performed;
        }
      }
      return record;
    };
    return snap;
  }

  /// Checkpoints the durable store (ok and nothing done when not durable).
  Status checkpoint() DBSP_REQUIRES(mutex) {
    return log_to_store([this](store::StateStore& s) {
      mutex.assert_held();  // runs inside log_to_store, under the lock
      s.checkpoint(snapshot_data());
    });
  }

  /// The live subscriptions in ascending-id order.
  [[nodiscard]] std::vector<Subscription*> subs_by_id() const DBSP_REQUIRES(mutex) {
    std::vector<Subscription*> out;
    out.reserve(subs.size());
    for (const auto& [raw_id, entry] : subs) out.push_back(entry.sub.get());
    std::sort(out.begin(), out.end(), [](const Subscription* a, const Subscription* b) {
      return a->id() < b->id();
    });
    return out;
  }

  /// Auto-checkpoint once enough records accumulated since the last one.
  Status maybe_checkpoint() DBSP_REQUIRES(mutex) {
    if (!store || !store->wants_checkpoint()) return Status();
    return checkpoint();
  }

  Status unsubscribe(SubscriptionId id) DBSP_REQUIRES(mutex) {
    const auto it = subs.find(id.value());
    if (it == subs.end()) {
      return Status::error(ErrorCode::kNotFound,
                           "subscription #" + std::to_string(id.value()) +
                               " is not registered");
    }
    // On append failure the store detaches (fail-stop), frozen at a state
    // that still holds this subscription — a consistent prefix of history —
    // while the in-memory unsubscribe below completes and the error is
    // reported to the caller.
    const Status logged = append_to_store(
        [&](store::StateStore& s) { s.append_unsubscribe(id); });
    // Pruning state first (release-before-engine-removal invariant), then
    // the engine entry, then the owning map slot.
    if (pruning) pruning->unregister_subscription(id);
    engine.remove(id);
    if (it->second.callback) --callbacks_registered;
    subs.erase(it);
    if (!logged.ok()) return logged;
    return maybe_checkpoint();
  }

  /// The tail of every publish, after its match: counts the publish call,
  /// runs the callbacks of `matched[i]` for `events[i]` (seq next_seq + i)
  /// under one kDispatch span, and finishes the trace. Returns the
  /// notifications over all events. Callbacks run under `mutex` (the
  /// dispatch order is part of the serialized publish) — which is why they
  /// must not re-enter the facade.
  std::uint64_t deliver(std::span<const Event> events,
                        std::span<const std::vector<SubscriptionId>> matched,
                        obs::TraceBuilder* tb, const obs::TraceContext& context)
      DBSP_REQUIRES(mutex) {
    std::uint64_t total = 0;
    for (const auto& row : matched) total += row.size();
    if (publishes_total != nullptr) publishes_total->inc();
    if (callbacks_registered > 0) {
      obs::ScopedSpan span(tb, obs::TraceStage::kDispatch);
      span.set_detail(total);
      // Deliveries (queue wait, socket write on the net edge) parent under
      // the dispatch span that caused them.
      obs::TraceContext delivery = context;
      if (span.span_id() != 0) delivery.parent_span = span.span_id();
      const std::uint64_t published_us = tb != nullptr ? tb->start_unix_us() : 0;
      for (std::size_t i = 0; i < events.size(); ++i) {
        for (const SubscriptionId id : matched[i]) {
          const auto it = subs.find(id.value());
          if (it != subs.end() && it->second.callback) {
            it->second.callback(
                Notification{id, next_seq + i, events[i], delivery, published_us});
          }
        }
      }
    }
    next_seq += events.size();
    if (tb != nullptr) tb->finish(*recorder);
    return total;
  }
};

}  // namespace api_detail

using api_detail::PubSubCore;

namespace {

/// Registers the scrape-time sync hook: every registry snapshot folds the
/// facade's legacy stat structs (subscription table size, engine counters,
/// store stats, pruning accounting) into registry series, so the structs
/// stay authoritative and the registry never lags by more than one scrape.
/// Counters use sync_to; levels are gauges. The hook captures the core
/// through a weak_ptr and no-ops once the facade is gone — it is never
/// removed, it simply dies with the registry (removal from the core's
/// destructor could deadlock when an in-flight scrape's promoted
/// shared_ptr is the last owner).
void register_metrics_hook(const std::shared_ptr<PubSubCore>& core) {
  if (core->registry == nullptr) return;
  auto& r = *core->registry;
  // Series pointers are stable for the registry's lifetime, so the hook
  // captures them raw (the hook cannot outlive the registry that owns it).
  auto* subscriptions = &r.gauge("dbsp_subscriptions");
  auto* durable = &r.gauge("dbsp_durable");
  auto* match_events = &r.counter("dbsp_match_events_total");
  auto* predicate_hits = &r.counter("dbsp_predicate_hits_total");
  auto* counter_increments = &r.counter("dbsp_counter_increments_total");
  auto* composite_probes = &r.counter("dbsp_composite_probes_total");
  auto* composite_hits = &r.counter("dbsp_composite_hits_total");
  auto* leaf_tests = &r.counter("dbsp_leaf_tests_total");
  auto* tree_evaluations = &r.counter("dbsp_tree_evaluations_total");
  auto* matches = &r.counter("dbsp_matches_total");
  auto* wal_records = &r.counter("dbsp_wal_records_total");
  auto* wal_bytes = &r.counter("dbsp_wal_bytes_total");
  auto* snapshots = &r.counter("dbsp_snapshots_written_total");
  auto* snapshot_records_encoded = &r.counter("dbsp_store_snapshot_records_encoded_total");
  auto* store_compactions = &r.counter("dbsp_store_compactions_total");
  auto* segment_bytes = &r.gauge("dbsp_store_segment_bytes");
  auto* wal_lag = &r.gauge("dbsp_wal_lag_records");
  auto* epoch = &r.gauge("dbsp_store_epoch");
  auto* pruning_tracked = &r.gauge("dbsp_pruning_tracked");
  auto* pruning_capacity = &r.gauge("dbsp_pruning_capacity");
  auto* pruning_performed = &r.gauge("dbsp_pruning_performed");
  auto* drift_pending = &r.gauge("dbsp_drift_pending");
  auto* admissions = &r.counter("dbsp_pruning_admissions_total");
  auto* releases = &r.counter("dbsp_pruning_releases_total");
  auto* compactions = &r.counter("dbsp_pruning_queue_compactions_total");
  auto* rescores = &r.counter("dbsp_pruning_full_rescores_total");
  auto* reindexes = &r.counter("dbsp_pruning_reindexes_total");
  std::weak_ptr<PubSubCore> weak = core;
  r.add_hook([=]() {
    const auto c = weak.lock();
    if (c == nullptr) return;
    MutexLock lock(c->mutex);
    subscriptions->set(static_cast<double>(c->subs.size()));
    durable->set(c->store ? 1.0 : 0.0);
    const CountingMatcher::Counters counters = c->engine.counters();
    match_events->sync_to(counters.events);
    predicate_hits->sync_to(counters.predicate_hits);
    counter_increments->sync_to(counters.counter_increments);
    composite_probes->sync_to(counters.composite_probes);
    composite_hits->sync_to(counters.composite_hits);
    leaf_tests->sync_to(counters.leaf_tests);
    tree_evaluations->sync_to(counters.tree_evaluations);
    matches->sync_to(counters.matches);
    if (c->store) {
      const StoreStats& st = c->store->stats();
      wal_records->sync_to(st.wal_records);
      wal_bytes->sync_to(st.wal_bytes);
      snapshots->sync_to(st.snapshots_written);
      snapshot_records_encoded->sync_to(st.snapshot_records_encoded);
      store_compactions->sync_to(st.compactions);
      segment_bytes->set(static_cast<double>(st.segment_bytes));
      wal_lag->set(static_cast<double>(st.records_since_checkpoint));
      epoch->set(static_cast<double>(st.epoch));
    }
    if (c->pruning) {
      pruning_tracked->set(static_cast<double>(c->pruning->subscription_count()));
      pruning_capacity->set(static_cast<double>(c->pruning->total_possible()));
      pruning_performed->set(static_cast<double>(c->pruning->performed()));
      drift_pending->set(c->pruning->drift_pending() ? 1.0 : 0.0);
      const auto m = c->pruning->maintenance();
      admissions->sync_to(m.admissions);
      releases->sync_to(m.releases);
      compactions->sync_to(m.queue_compactions);
      rescores->sync_to(m.full_rescores);
      reindexes->sync_to(m.reindexes);
    }
  });
}

/// The facade is the schema authority for raw trees: a leaf on an attribute
/// id the schema lacks would index past the matcher's per-schema tables.
Status check_attributes(const Node& tree, const Schema& schema) {
  Status status;
  tree.for_each_leaf([&](const Node& leaf) {
    const AttributeId attr = leaf.predicate().attribute();
    if (status.ok() && attr.value() >= schema.attribute_count()) {
      status = Status::error(ErrorCode::kInvalidArgument,
                             "filter attribute id " + std::to_string(attr.value()) +
                                 " not in schema");
    }
  });
  return status;
}

}  // namespace

// --- SubscriptionHandle ------------------------------------------------------

SubscriptionHandle::SubscriptionHandle(SubscriptionHandle&& other) noexcept
    : core_(std::move(other.core_)), id_(other.id_) {
  other.core_.reset();
  other.id_ = SubscriptionId();
}

SubscriptionHandle& SubscriptionHandle::operator=(SubscriptionHandle&& other) noexcept {
  if (this != &other) {
    if (attached()) (void)release();  // drop the current claim first
    core_ = std::move(other.core_);
    id_ = other.id_;
    other.core_.reset();
    other.id_ = SubscriptionId();
  }
  return *this;
}

SubscriptionHandle::~SubscriptionHandle() {
  if (attached()) (void)release();
}

bool SubscriptionHandle::active() const {
  if (!id_.valid()) return false;
  const auto core = core_.lock();
  if (core == nullptr) return false;
  MutexLock lock(core->mutex);
  return core->subs.count(id_.value()) != 0;
}

Status SubscriptionHandle::release() {
  if (!id_.valid()) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "handle is empty, moved-from, or already released");
  }
  const SubscriptionId id = id_;
  id_ = SubscriptionId();
  const auto core = core_.lock();
  core_.reset();
  if (core == nullptr) {
    return Status::error(ErrorCode::kUnavailable,
                         "the PubSub behind this handle no longer exists");
  }
  MutexLock lock(core->mutex);
  return core->unsubscribe(id);
}

// --- PubSub ------------------------------------------------------------------

PubSub::PubSub(Schema schema, PubSubOptions options)
    : core_(std::make_shared<PubSubCore>(std::move(schema), options)) {
  register_metrics_hook(core_);
}

PubSub::~PubSub() = default;

Result<PubSub> PubSub::open(StoreOptions store_options, PubSubOptions options) {
  std::unique_ptr<store::StateStore> state_store;
  store::RecoveredState rec;
  try {
    auto opened = store::StateStore::open(store_options);
    state_store = std::move(opened.first);
    rec = std::move(opened.second);
  } catch (const store::StoreError& e) {
    if (e.not_found()) return Status::error(ErrorCode::kNotFound, e.what());
    return Status::error(e.io() ? ErrorCode::kIoError : ErrorCode::kDataLoss,
                         e.what());
  } catch (const WireError& e) {
    return Status::error(ErrorCode::kDataLoss, e.what());
  }
  if (store_options.schema.attribute_count() > 0 &&
      !store::schemas_equal(store_options.schema, rec.schema)) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "the store's schema does not match the provided one");
  }

  auto core = std::make_shared<PubSubCore>(std::move(rec.schema), options);
  // The core is not shared with anyone yet, but the recovery population
  // below touches guarded state, so take the lock (uncontended) to keep
  // the analysis airtight.
  MutexLock lock(core->mutex);
  if (!rec.stats.empty()) {
    try {
      WireReader reader(rec.stats);
      core->stats.load(reader);
      if (!reader.exhausted()) throw WireError("trailing bytes after statistics");
      core->stats_trained = true;
    } catch (const WireError& e) {
      return Status::error(ErrorCode::kDataLoss,
                           std::string("stored statistics: ") + e.what());
    }
  }
  for (auto& rsub : rec.subs) {
    auto sub = std::make_unique<Subscription>(rsub.id, std::move(rsub.tree));
    core->engine.add(*sub);
    if (core->pruning) {
      core->pruning->add(*sub);
      // Zero/zero means "no accounting was captured" (leaf-only tree, or a
      // snapshot written with pruning off); the fresh capture above is then
      // already right. Anything else is pre-crash accounting to restore.
      if (rsub.capacity != 0 || rsub.performed != 0) {
        core->pruning->restore_accounting(rsub.id, rsub.capacity, rsub.performed);
      }
    }
    core->subs.emplace(rsub.id.value(),
                       api_detail::SubEntry{std::move(sub), PubSub::Callback{}});
  }
  // A CRC-clean but hostile next_id must not truncate below recovered ids
  // — a wrapped counter would hand out an id the engine already indexes
  // and leave the matcher holding a freed Subscription.
  if (rec.next_id >= SubscriptionId::kInvalid) {
    return Status::error(ErrorCode::kDataLoss,
                         "stored next id is outside the id space");
  }
  core->next_id = static_cast<SubscriptionId::value_type>(rec.next_id);
  core->next_seq = rec.next_seq;
  core->store = std::move(state_store);
  register_metrics_hook(core);
  return PubSub(std::move(core));
}

bool PubSub::durable() const {
  MutexLock lock(core_->mutex);
  return core_->store != nullptr;
}

Status PubSub::checkpoint() {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.store) {
    return c.store_failure.ok()
               ? Status::error(ErrorCode::kFailedPrecondition,
                               "this PubSub is not durable (use PubSub::open)")
               : c.store_failure;
  }
  return c.checkpoint();
}

StoreStats PubSub::store_stats() const {
  MutexLock lock(core_->mutex);
  return core_->store ? core_->store->stats() : StoreStats{};
}

const Schema& PubSub::schema() const { return core_->schema; }

EventBuilder PubSub::event() const { return EventBuilder(core_->schema); }

Result<SubscriptionHandle> PubSub::subscribe(const Filter& filter, Callback callback) {
  auto tree = filter.compile(core_->schema);
  if (!tree.ok()) return tree.status();
  return subscribe(std::move(tree).value(), std::move(callback));
}

Result<SubscriptionHandle> PubSub::subscribe(std::string_view dsl_text,
                                             Callback callback) {
  std::unique_ptr<Node> tree;
  try {
    tree = parse_subscription(dsl_text, core_->schema);
  } catch (const ParseError& e) {
    return Status::error(ErrorCode::kParseError,
                         std::string(e.what()) + " at position " +
                             std::to_string(e.position()));
  } catch (const std::exception& e) {  // unknown attribute etc.
    return Status::error(ErrorCode::kParseError, e.what());
  }
  return subscribe(std::move(tree), std::move(callback));
}

Result<SubscriptionHandle> PubSub::subscribe(std::unique_ptr<Node> tree,
                                             Callback callback) {
  if (tree == nullptr) {
    return Status::error(ErrorCode::kInvalidArgument, "null subscription tree");
  }
  if (Status checked = check_attributes(*tree, core_->schema); !checked.ok()) {
    return checked;
  }
  // Pruning assumes simplified trees, as the parser and Filter::compile
  // produce them: an unsimplified one can fold to a constant mid-pass.
  // simplify() keeps every node it does not change.
  tree = simplify(std::move(tree));
  if (tree->is_constant()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "constant filters cannot be subscribed");
  }
  auto& c = *core_;
  MutexLock lock(c.mutex);
  const SubscriptionId id(c.next_id);
  auto sub = std::make_unique<Subscription>(id, std::move(tree));
  c.engine.add(*sub);
  // Durable mode: the registration is rolled back when its record cannot
  // be appended, so the WAL never misses a subscribe that later records
  // (prune/unsubscribe of this id) would depend on at replay. A due
  // auto-checkpoint runs *before* the append (the pre-registration state
  // it snapshots is exactly what c.subs holds here), so its failure also
  // surfaces through this rollback instead of being swallowed.
  Status logged = c.maybe_checkpoint();
  if (logged.ok()) {
    logged = c.append_to_store(
        [&](store::StateStore& s) { s.append_subscribe(id, sub->root()); });
  }
  if (!logged.ok()) {
    c.engine.remove(id);
    return logged;
  }
  ++c.next_id;
  if (c.pruning) c.pruning->add(*sub);
  if (callback) ++c.callbacks_registered;
  c.subs.emplace(id.value(),
                 api_detail::SubEntry{std::move(sub), std::move(callback)});
  return SubscriptionHandle(core_, id);
}

Result<SubscriptionHandle> PubSub::adopt(SubscriptionId id, Callback callback) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  const auto it = c.subs.find(id.value());
  if (it == c.subs.end()) {
    return Status::error(ErrorCode::kNotFound,
                         "subscription #" + std::to_string(id.value()) +
                             " is not registered");
  }
  if (it->second.callback) --c.callbacks_registered;
  if (callback) ++c.callbacks_registered;
  it->second.callback = std::move(callback);
  return SubscriptionHandle(core_, id);
}

Status PubSub::unsubscribe(SubscriptionId id) {
  MutexLock lock(core_->mutex);
  return core_->unsubscribe(id);
}

bool PubSub::contains(SubscriptionId id) const {
  MutexLock lock(core_->mutex);
  return core_->subs.count(id.value()) != 0;
}

std::size_t PubSub::subscription_count() const {
  MutexLock lock(core_->mutex);
  return core_->subs.size();
}

std::vector<SubscriptionId> PubSub::subscription_ids() const {
  MutexLock lock(core_->mutex);
  std::vector<SubscriptionId> out;
  out.reserve(core_->subs.size());
  for (const auto& [raw_id, entry] : core_->subs) out.emplace_back(raw_id);
  std::sort(out.begin(), out.end());
  return out;
}

Result<bool> PubSub::matches(SubscriptionId id, const Event& event) const {
  MutexLock lock(core_->mutex);
  const auto it = core_->subs.find(id.value());
  if (it == core_->subs.end()) {
    return Status::error(ErrorCode::kNotFound, "unknown subscription id");
  }
  return it->second.sub->matches(event);
}

Result<std::string> PubSub::subscription_text(SubscriptionId id) const {
  MutexLock lock(core_->mutex);
  const auto it = core_->subs.find(id.value());
  if (it == core_->subs.end()) {
    return Status::error(ErrorCode::kNotFound, "unknown subscription id");
  }
  return it->second.sub->to_string(core_->schema);
}

std::size_t PubSub::publish(const Event& event) {
  return publish(event, obs::TraceContext{});
}

std::size_t PubSub::publish(const Event& event, obs::TraceContext context) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  obs::TraceBuilder* tb = c.begin_trace(context);
  c.match_scratch.clear();
  {
    obs::ScopedSpan span(tb, obs::TraceStage::kMatch);
    c.engine.match(event, c.match_scratch);
    span.set_detail(c.match_scratch.size());
  }
  return c.deliver(std::span(&event, 1), std::span(&c.match_scratch, 1), tb, context);
}

std::uint64_t PubSub::publish_batch(std::span<const Event> events) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  // One trace covers the whole batch: the per-event fan-out is the
  // engine's concern, not a causal boundary worth a span each.
  obs::TraceContext context;
  obs::TraceBuilder* tb = c.begin_trace(context);
  {
    obs::ScopedSpan span(tb, obs::TraceStage::kMatch);
    span.set_detail(events.size());
    c.engine.match_batch(events, c.batch_scratch);
  }
  return c.deliver(events, c.batch_scratch, tb, context);
}

namespace {

Status pruning_disabled() {
  return Status::error(ErrorCode::kFailedPrecondition,
                       "pruning is disabled (PubSubOptions::pruning)");
}

}  // namespace

Status PubSub::train(std::span<const Event> sample) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  // aggregation_stats() ranks its dimensions on the trained statistics.
  if (!c.options.pruning && !c.options.aggregation) return pruning_disabled();
  c.stats.reset();
  for (const Event& e : sample) c.stats.observe(e);
  c.stats.finalize();
  c.stats_trained = true;
  // The estimator holds the stats by reference; queued candidate scores go
  // stale until the caller's next rescore_all(). The index's cached leaf
  // estimates are re-read now, re-choosing every access set.
  if (c.pruning) c.engine.counting_shard(0).rechoose_access_sets();
  const Status logged = c.append_to_store([&](store::StateStore& s) {
    c.mutex.assert_held();  // runs inside log_to_store, under the lock
    s.append_train(c.stats);
  });
  if (!logged.ok()) return logged;
  return c.maybe_checkpoint();
}

namespace {

/// Logs one kPrune record per subscription the last pass pruned: its final
/// tree and how many prunings the pass applied to it. On an append failure
/// the prunings stay applied (they cannot be unwound), the store fail-stops
/// at its pre-pass state — the recovered trees are then simply one
/// generation behind — and the error is reported.
Status logged_prune(PubSubCore& c) DBSP_REQUIRES(c.mutex) {
  for (const PruningEngine::Pruned& pruned : c.pruning->last_pruned()) {
    const auto it = c.subs.find(pruned.sub.value());
    const Status logged = c.append_to_store([&](store::StateStore& s) {
      s.append_prune(pruned.sub, it->second.sub->root(),
                     static_cast<std::uint32_t>(pruned.prunings));
    });
    if (!logged.ok()) return logged;
  }
  return c.maybe_checkpoint();
}

/// Runs one pruning pass in a trace of its own: `pass` under the kPrune
/// span, then its records (their kWalAppend spans join the trace).
template <class Pass>
Result<std::size_t> prune_pass(PubSubCore& c, Pass&& pass) DBSP_REQUIRES(c.mutex) {
  obs::TraceContext context;
  obs::TraceBuilder* tb = c.begin_trace(context);
  std::size_t done = 0;
  {
    obs::ScopedSpan span(tb, obs::TraceStage::kPrune);
    done = std::forward<Pass>(pass)(*c.pruning);
    span.set_detail(done);
  }
  const Status logged = c.store != nullptr && done > 0 ? logged_prune(c) : Status();
  if (tb != nullptr) tb->finish(*c.recorder);
  if (!logged.ok()) return logged;
  return done;
}

}  // namespace

Result<std::size_t> PubSub::prune(std::size_t k) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.pruning) return pruning_disabled();
  return prune_pass(c, [k](ShardedPruningSet& set) { return set.prune(k); });
}

Result<std::size_t> PubSub::prune_to_fraction(double fraction) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.pruning) return pruning_disabled();
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "fraction must be in [0, 1]");
  }
  return prune_pass(
      c, [fraction](ShardedPruningSet& set) { return set.prune_to_fraction(fraction); });
}

Status PubSub::set_prune_dimension(PruneDimension dimension) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.pruning) return pruning_disabled();
  c.options.prune.dimension = dimension;
  // Rebuild over the current trees in ascending-id order for determinism;
  // baselines re-capture the present (already pruned) state, which is what
  // incremental re-optimization wants.
  c.pruning.emplace(c.engine, *c.estimator, c.options.prune, c.subs_by_id());
  // The rebuild re-captured every subscription's accounting, which no WAL
  // record carries: persist it now with a checkpoint that re-encodes the
  // whole table, so a kill before the next one cannot recover the old
  // capacity and performed counts.
  if (!c.store) return Status();
  c.store->mark_all_dirty();
  return c.checkpoint();
}

Status PubSub::set_drift_threshold(std::size_t mutations) {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.pruning) return pruning_disabled();
  c.pruning->set_drift_threshold(mutations);
  return Status();
}

bool PubSub::drift_pending() const {
  MutexLock lock(core_->mutex);
  return core_->pruning && core_->pruning->drift_pending();
}

Status PubSub::rescore_all() {
  auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.pruning) return pruning_disabled();
  c.pruning->rescore_all();
  return Status();
}

PubSub::PruningStats PubSub::pruning_stats() const {
  PruningStats out;
  const auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.pruning) return out;
  out.enabled = true;
  out.tracked = c.pruning->subscription_count();
  out.total_possible = c.pruning->total_possible();
  out.performed = c.pruning->performed();
  out.maintenance = c.pruning->maintenance();
  return out;
}

PubSub::AggregationStats PubSub::aggregation_stats() const {
  AggregationStats out;
  const auto& c = *core_;
  MutexLock lock(c.mutex);
  if (!c.options.aggregation) return out;
  agg::SubscriptionAggregator view(c.schema);
  for (Subscription* sub : c.subs_by_id()) view.add(*sub);
  if (c.stats_trained) view.train(c.stats);
  out.enabled = true;
  out.subgroups = view.subgroup_count();
  out.dimensions = view.dimensions().size();
  out.advertised_bytes = view.advertised_bytes();
  out.counters = view.counters();
  return out;
}

std::size_t PubSub::worker_count() const {
  MutexLock lock(core_->mutex);
  return core_->engine.worker_count();
}

std::size_t PubSub::association_count() const {
  MutexLock lock(core_->mutex);
  return core_->engine.association_count();
}

std::size_t PubSub::subscription_bytes() const {
  MutexLock lock(core_->mutex);
  std::size_t total = 0;
  for (const auto& [raw_id, entry] : core_->subs) {
    total += entry.sub->root().size_bytes();
  }
  return total;
}

CountingMatcher::Counters PubSub::counters() const {
  MutexLock lock(core_->mutex);
  return core_->engine.counters();
}

obs::MetricsSnapshot PubSub::metrics() const {
  // Never holds the facade lock here: snapshot() runs the sync hook, and
  // the hook takes that lock itself (facade -> registry is the one order).
  if (core_->registry == nullptr) return {};
  return core_->registry->snapshot();
}

std::string PubSub::metrics_json() const { return obs::to_json(metrics()); }

std::shared_ptr<obs::MetricsRegistry> PubSub::metrics_registry() const {
  return core_->registry;
}

std::vector<obs::Trace> PubSub::traces() const {
  // Like metrics(): the recorder is internally synchronized, so the facade
  // lock stays out of the export path.
  if (core_->recorder == nullptr) return {};
  return core_->recorder->snapshot();
}

std::string PubSub::traces_json() const {
  if (core_->recorder == nullptr) return obs::traces_json({}, 0, 0);
  return obs::traces_json(*core_->recorder);
}

std::shared_ptr<obs::FlightRecorder> PubSub::trace_recorder() const {
  return core_->recorder;
}

}  // namespace dbsp
