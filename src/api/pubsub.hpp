#pragma once

/// \file
/// The `dbsp::PubSub` facade — the stable public entry point of the
/// library. One object owns the schema, the matching engine, the
/// selectivity statistics, and (optionally) the global pruning queue;
/// subscriptions are registered through fluent `Filter`s, DSL text, or raw
/// trees and handed back as RAII `SubscriptionHandle`s whose destruction
/// unsubscribes and releases all pruning state automatically. Errors
/// travel through the Status/Result channel (api/status.hpp), not
/// exceptions. `PubSub::open()` runs the same facade durably: state is
/// recovered from (and every table mutation logged to) a store directory
/// (store/state_store.hpp, docs/ARCHITECTURE.md "Durability").
///
/// Thread safety: a PubSub is safe for concurrent use from any number of
/// threads. Every entry point — publishing, subscribe/unsubscribe churn,
/// pruning maintenance, handle release — is serialized on one internal
/// mutex (annotated with Clang Thread Safety attributes and checked under
/// `-Wthread-safety -Werror`; raced under ThreadSanitizer by
/// tests/concurrent_stress_test.cpp), which is exactly the
/// external-serialization contract the wrapped ShardedEngine and
/// StateStore demand. publish_batch still fans out across match workers on
/// the engine's internal pool while the facade lock is held. Callbacks run on
/// the publishing thread *under* that lock: they must not call back into
/// the PubSub or release handles (the mutex is non-recursive — re-entry
/// deadlocks rather than corrupts), and they serialize against all other
/// facade calls.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "agg/aggregator.hpp"
#include "api/filter.hpp"
#include "api/status.hpp"
#include "core/pruning_set.hpp"
#include "event/event.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "store/state_store.hpp"

namespace dbsp {

namespace api_detail {
struct PubSubCore;
}  // namespace api_detail

/// Construction-time knobs of a PubSub.
struct PubSubOptions {
  /// Match-worker count of the matching engine (publish_batch fan-out).
  ShardedEngineOptions engine;
  /// Enables dimension-based pruning maintenance: every subscription is
  /// admitted to the pruning queue on subscribe and released on
  /// unsubscribe/handle drop.
  bool pruning = false;
  /// Dimension / tie-break order / bottom-up restriction of the pruning
  /// queues (used only when `pruning` is set).
  PruneEngineConfig prune;
  /// Enables aggregation_stats(): a report of how the table clusters into
  /// subgroups with bounded per-dimension summaries (src/agg/), built from
  /// the live trees when it is called. No churn, recovery or pruning path
  /// keeps summaries, and publishing never reads them — matching is the
  /// counting engine alone. Also lets train() run with pruning off, since
  /// the report ranks its dimensions on the trained statistics.
  bool aggregation = false;
  /// Enables the metrics registry: throughput counters, the per-stage
  /// latencies of head-sampled traces (dbsp_stage_us, fed by the flight
  /// recorder — so they also need `tracing`), and the state synced at
  /// every scrape (subscriptions, WAL lag, pruning gauges). Off: metrics()
  /// returns an empty snapshot and the publish path pays nothing.
  bool metrics = true;
  /// Enables per-event tracing: every publish carries an obs::TraceContext
  /// (propagated into Notifications and across the wire), head-sampled
  /// publishes collect detailed spans,
  /// every publish takes coarse stage timings so the tail sampler can
  /// retain the slowest K of the rolling window, and completed traces land
  /// in the flight recorder behind traces()/traces_json(). The spans of
  /// head-sampled traces are also the dbsp_stage_us metrics. Off: traces()
  /// is empty, there is no dbsp_stage_us, and the publish path pays one
  /// null check.
  bool tracing = true;
  /// Flight-recorder knobs (ring capacity, 1-in-N head sampling stride —
  /// the one sampler behind both /traces and dbsp_stage_us — slowest-K,
  /// window). A zero sample_every reads DBSP_TRACE_SAMPLE; used only when
  /// `tracing` is set.
  obs::FlightRecorderOptions trace;
};

/// One delivered notification: which subscription matched which event.
/// `seq` is the PubSub-assigned publish sequence number. `event` refers to
/// the caller's published event and is valid only for the duration of the
/// callback — copy the Event (not the Notification) to keep it longer.
struct Notification {
  SubscriptionId subscription;
  std::uint64_t seq = 0;
  const Event& event;
  /// The publish's trace context (trace_id 0 when tracing is off) — what a
  /// delivery layer propagates to the subscriber's hop of the trace.
  obs::TraceContext trace{};
  /// Publish wall clock in unix microseconds (0 when tracing is off) — the
  /// base a subscriber-side dbsp_e2e_latency_us observation subtracts.
  std::uint64_t published_unix_us = 0;
};

/// RAII claim on one registration: destruction (or release()) unsubscribes
/// and releases the subscription's pruning state. Move-only. A handle may
/// outlive its PubSub — every operation on it then reports kUnavailable
/// instead of touching freed memory, and destruction is a no-op.
class SubscriptionHandle {
 public:
  /// An empty handle (no registration claim).
  SubscriptionHandle() = default;
  SubscriptionHandle(SubscriptionHandle&& other) noexcept;
  SubscriptionHandle& operator=(SubscriptionHandle&& other) noexcept;
  SubscriptionHandle(const SubscriptionHandle&) = delete;
  SubscriptionHandle& operator=(const SubscriptionHandle&) = delete;
  ~SubscriptionHandle();

  /// The registered id; kInvalid on empty/moved-from/released handles.
  [[nodiscard]] SubscriptionId id() const { return id_; }

  /// True while this handle holds an unreleased claim (the PubSub may
  /// still be gone; see active()).
  [[nodiscard]] bool attached() const { return id_.valid(); }

  /// True iff the claim is live end to end: not released, the PubSub still
  /// exists, and the subscription is still registered there.
  [[nodiscard]] bool active() const;

  /// Unsubscribes now. Errors instead of UB on every misuse: empty or
  /// moved-from handle / double release -> kFailedPrecondition; PubSub
  /// already destroyed -> kUnavailable; id already unsubscribed through
  /// another path -> kNotFound. The handle is empty afterwards either way.
  [[nodiscard]] Status release();

 private:
  friend class PubSub;
  SubscriptionHandle(std::weak_ptr<api_detail::PubSubCore> core, SubscriptionId id)
      : core_(std::move(core)), id_(id) {}

  std::weak_ptr<api_detail::PubSubCore> core_;
  SubscriptionId id_{};
};

/// The facade. See the file comment for the ownership picture.
class PubSub {
 public:
  using Callback = std::function<void(const Notification&)>;

  /// Takes the schema by value: the PubSub is the authority over its event
  /// domain for its whole lifetime.
  explicit PubSub(Schema schema, PubSubOptions options = {});
  ~PubSub();

  PubSub(const PubSub&) = delete;
  PubSub& operator=(const PubSub&) = delete;
  /// Movable so Result<PubSub> (and containers) can carry one. A moved-from
  /// PubSub may only be destroyed or assigned to; outstanding handles keep
  /// working against the moved-to object.
  PubSub(PubSub&&) noexcept = default;
  PubSub& operator=(PubSub&&) noexcept = default;

  // --- Durability ----------------------------------------------------------

  /// Opens (or creates) a durable PubSub backed by a store directory: the
  /// subscription table, the trained statistics, and all pruning state are
  /// recovered from snapshot + WAL, and every later subscribe /
  /// unsubscribe / prune / train is logged before the call returns.
  /// Recovered registrations carry no callbacks — re-claim them with
  /// adopt(). Errors: kDataLoss (corrupt or truncated files — never UB),
  /// kIoError (filesystem), kInvalidArgument (schema mismatch), kNotFound
  /// (no store and create_if_missing off).
  [[nodiscard]] static Result<PubSub> open(StoreOptions store,
                                           PubSubOptions options = {});

  /// True while a store is attached and healthy. Durability is fail-stop:
  /// the first failed append detaches the store (leaving it a consistent
  /// prefix of history), the failing call reports the error, and the
  /// PubSub continues in-memory-only.
  [[nodiscard]] bool durable() const;

  /// Checkpoints now: persists what changed since the last checkpoint (a
  /// snapshot segment, or a compaction once the segments have grown) and
  /// truncates the WAL. Also runs automatically every
  /// StoreOptions::snapshot_every records.
  /// kFailedPrecondition when not durable.
  [[nodiscard]] Status checkpoint();

  /// Durability counters: WAL appends/bytes, snapshots, and what open()
  /// replayed. Zeros when not durable.
  [[nodiscard]] StoreStats store_stats() const;

  [[nodiscard]] const Schema& schema() const;
  /// Convenience: an EventBuilder over this PubSub's schema.
  [[nodiscard]] EventBuilder event() const;

  // --- Subscribing ---------------------------------------------------------

  /// Registers a filter built with the fluent builder. The callback (may
  /// be empty) fires once per matching published event.
  [[nodiscard]] Result<SubscriptionHandle> subscribe(const Filter& filter,
                                                     Callback callback = {});
  /// Registers subscription DSL text (subscription/parser.hpp grammar).
  /// *Every* failure of the text — bad syntax and unknown attributes alike
  /// — reports kParseError with the offending position; only the builder
  /// path distinguishes kNotFound for unknown attributes.
  [[nodiscard]] Result<SubscriptionHandle> subscribe(std::string_view dsl_text,
                                                     Callback callback = {});
  /// Interop entry point for pre-built trees (workload generators, codec).
  /// kInvalidArgument, with nothing registered or logged, when a leaf names
  /// an attribute outside the schema.
  [[nodiscard]] Result<SubscriptionHandle> subscribe(std::unique_ptr<Node> tree,
                                                     Callback callback = {});

  /// Id-based unsubscribe (the handle's release() calls this). kNotFound
  /// when the id is not registered.
  [[nodiscard]] Status unsubscribe(SubscriptionId id);

  /// Claims an existing registration — the recovery counterpart of
  /// subscribe(): after open(), walk subscription_ids() and adopt each id
  /// to attach its callback and regain a RAII handle. Replaces any
  /// callback already attached to the id. At most one handle per
  /// registration should be live (a second one releases the same claim;
  /// the loser sees kNotFound). kNotFound for unregistered ids.
  [[nodiscard]] Result<SubscriptionHandle> adopt(SubscriptionId id,
                                                 Callback callback = {});

  [[nodiscard]] bool contains(SubscriptionId id) const;
  [[nodiscard]] std::size_t subscription_count() const;
  /// All registered ids in ascending order (recovery adoption order).
  [[nodiscard]] std::vector<SubscriptionId> subscription_ids() const;

  /// Direct tree evaluation of one registered subscription against an
  /// event — the correctness oracle (bypasses the counting indexes).
  [[nodiscard]] Result<bool> matches(SubscriptionId id, const Event& event) const;
  /// The subscription's current (possibly pruned) expression as DSL text.
  [[nodiscard]] Result<std::string> subscription_text(SubscriptionId id) const;

  // --- Publishing ----------------------------------------------------------

  /// Matches one event, dispatches callbacks in ascending subscription-id
  /// order, and returns the number of notifications.
  std::size_t publish(const Event& event);
  /// The same publish carrying a propagated trace context (wire or overlay
  /// ingress): the facade's spans join the caller's trace instead of
  /// starting a fresh one. An inactive context (trace_id 0) behaves like
  /// plain publish().
  std::size_t publish(const Event& event, obs::TraceContext context);
  /// Batched dispatch through ShardedEngine::match_batch (events fan out
  /// over the match workers); returns total notifications over the batch.
  std::uint64_t publish_batch(std::span<const Event> events);

  // --- Pruning maintenance -------------------------------------------------

  /// (Re)trains the selectivity statistics on a sample of events; the
  /// pruning heuristics price candidates against them, and
  /// aggregation_stats() ranks its dimensions on them. Call before bulk
  /// subscribing for meaningful scores, and again (followed by
  /// rescore_all()) when drift_pending() fires. kFailedPrecondition when
  /// both pruning and aggregation are off.
  [[nodiscard]] Status train(std::span<const Event> sample);

  /// Performs up to `k` prunings from the global queue.
  [[nodiscard]] Result<std::size_t> prune(std::size_t k);
  /// Prunes to `fraction` (in [0,1]) of the live capacity; idempotent,
  /// cheap to call every churn tick. Which trees are pruned does not depend
  /// on the worker count.
  [[nodiscard]] Result<std::size_t> prune_to_fraction(double fraction);

  /// Rebuilds the pruning queues on a new primary dimension, re-reading
  /// every subscription's *current* (possibly already pruned) tree — the
  /// adaptive-dimension hook. Resets the drift trigger. A durable facade
  /// checkpoints before returning: the rebuild re-captures every
  /// subscription's pruning accounting, which no WAL record carries.
  [[nodiscard]] Status set_prune_dimension(PruneDimension dimension);

  /// Drift trigger of the pruning queue (see PruningEngine): after
  /// `mutations` churn operations, drift_pending() asks for train() +
  /// rescore_all(). Aggregation has no trigger. set_drift_threshold and
  /// rescore_all report kFailedPrecondition, and drift_pending() false,
  /// when pruning is off.
  [[nodiscard]] Status set_drift_threshold(std::size_t mutations);
  [[nodiscard]] bool drift_pending() const;
  [[nodiscard]] Status rescore_all();

  struct PruningStats {
    bool enabled = false;
    std::size_t tracked = 0;         ///< subscriptions in the queues
    std::size_t total_possible = 0;  ///< live pruning capacity
    std::size_t performed = 0;
    PruningEngine::MaintenanceCounters maintenance;
  };
  [[nodiscard]] PruningStats pruning_stats() const;

  // --- Aggregation ---------------------------------------------------------

  struct AggregationStats {
    bool enabled = false;
    std::size_t subgroups = 0;         ///< non-empty subgroups
    std::size_t dimensions = 0;        ///< active aggregation dimensions
    std::size_t advertised_bytes = 0;  ///< summary advertisement footprint
    /// What building this one report did; the probe-side fields are 0.
    agg::AggregationCounters counters;
  };
  /// Subgroup summaries of the live table; default (enabled == false) when
  /// PubSubOptions::aggregation is off. Each call builds a fresh
  /// agg::SubscriptionAggregator with default options, adds every live
  /// subscription's current tree in ascending-id order and, once train()
  /// (or recovery) supplied statistics, trains it on them — so the result
  /// does not depend on the churn, pruning or recovery history behind the
  /// table. Costs O(table) under the facade lock: every other call waits
  /// while it runs.
  [[nodiscard]] AggregationStats aggregation_stats() const;

  // --- Introspection -------------------------------------------------------

  /// Match workers a publish_batch fans out over.
  [[nodiscard]] std::size_t worker_count() const;
  /// Predicate/subscription associations (the memory metric of Fig. 1).
  [[nodiscard]] std::size_t association_count() const;
  /// Deterministic model bytes of all registered subscription trees.
  [[nodiscard]] std::size_t subscription_bytes() const;
  /// Matcher work since construction (never reset: take the difference of
  /// two readings to measure a window).
  [[nodiscard]] CountingMatcher::Counters counters() const;

  // --- Observability -------------------------------------------------------

  /// A point-in-time snapshot of every registered metric series: the
  /// registry's own counters/histograms plus the scrape-time sync of the
  /// legacy stat structs (subscriptions, engine counters, store stats,
  /// pruning gauges). Empty when PubSubOptions::metrics is off. Safe to
  /// call concurrently with publishing — never blocks the hot path.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;
  /// The same snapshot rendered as JSON (see obs/exposition.hpp for the
  /// shape). `{"metrics": []}` when metrics are disabled.
  [[nodiscard]] std::string metrics_json() const;
  /// The shared registry behind metrics() — null when metrics are
  /// disabled. Embedding layers (the network server) register their own
  /// series here so one scrape exports the whole process.
  [[nodiscard]] std::shared_ptr<obs::MetricsRegistry> metrics_registry() const;

  /// Every trace currently readable from the flight recorder, oldest
  /// first: head-sampled publishes plus the tail-admitted slowest of the
  /// rolling window. Empty when PubSubOptions::tracing is off. Lock-free —
  /// never blocks the publish path.
  [[nodiscard]] std::vector<obs::Trace> traces() const;
  /// The same traces rendered as JSON (see obs/flight.hpp for the shape).
  /// `{"traces": [], ...}` when tracing is disabled.
  [[nodiscard]] std::string traces_json() const;
  /// The shared flight recorder behind traces() — null when tracing is
  /// disabled. Embedding layers (the network server) record their own
  /// hop entries here so one pull exports the whole process's spans.
  [[nodiscard]] std::shared_ptr<obs::FlightRecorder> trace_recorder() const;

 private:
  explicit PubSub(std::shared_ptr<api_detail::PubSubCore> core)
      : core_(std::move(core)) {}

  std::shared_ptr<api_detail::PubSubCore> core_;
};

}  // namespace dbsp
