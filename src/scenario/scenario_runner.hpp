#pragma once

/// \file
/// The ScenarioRunner: drives a workload domain through timed phases of
/// interleaved subscribe/unsubscribe/publish against the public PubSub
/// facade (centralized mode), a dbspd core over loopback TCP (sockets) or
/// a broker overlay, with adaptive pruning maintenance (incremental
/// admission/release + drift-triggered retrain/rescore), and asserts exact
/// delivery against a naive oracle the whole way. One phase loop serves
/// all three; each supplies only how it subscribes, publishes, collects
/// deliveries, answers the oracle, prunes and recovers. Built on the
/// dbsp/dbsp.hpp surface (plus net/ for the sockets transport) — it is both
/// the substrate for long-running evaluations and the in-tree proof that
/// the public API carries churn, flash crowds, and pruning end to end.

#include <cstdint>
#include <string>
#include <vector>

#include "dbsp/dbsp.hpp"
#include "scenario/churn.hpp"

namespace dbsp {

/// One timed phase: publish `events` events while churning subscriptions
/// at the phase's rates.
struct ScenarioPhase {
  std::string name;
  std::size_t events = 0;
  ChurnConfig churn;
  /// Arrivals draw from the domain's flash_subscriptions() stream — the
  /// burst of near-identical interest a flash crowd produces. The crowd
  /// drains naturally in later phases via recency-biased departures.
  bool flash_crowd = false;
};

/// How the runner reaches the system under soak.
enum class ScenarioTransport {
  /// Direct calls into the in-process PubSub facade (or broker overlay).
  kInProcess,
  /// Real loopback TCP through a net::NetServer fronted by DbspClients —
  /// every subscribe/publish/notification crosses the dbspd wire protocol.
  /// Centralized only, and pruning must be off: the runner's oracle holds
  /// unpruned local tree clones, which server-side pruning would diverge
  /// from.
  kSockets,
};

struct ScenarioConfig {
  std::uint64_t seed = 42;
  std::size_t initial_subscriptions = 1000;
  /// Match workers (centralized engine or each broker's engine).
  std::size_t shards = 1;
  std::vector<ScenarioPhase> phases;

  // --- Aggregation ---------------------------------------------------------
  /// Overlay mode only: every broker routes by subgroup summaries
  /// (Overlay::enable_aggregation), so transit forwarding follows the
  /// summaries and the oracle checks their no-false-negative contract.
  bool aggregation = false;

  // --- Pruning maintenance -------------------------------------------------
  bool pruning = true;
  PruneDimension dimension = PruneDimension::NetworkLoad;
  /// Table mutations before the drift trigger retrains the
  /// selectivity stats and re-scores queued candidates (0 = off).
  std::size_t drift_threshold = 200;

  // --- Selectivity statistics ----------------------------------------------
  /// Initial training sample (independent stream), drawn only with
  /// pruning on.
  std::size_t training_events = 2000;

  // --- Oracle --------------------------------------------------------------
  /// Verify the delivered ids of every k-th event against the oracle
  /// (1 = every event; 0 disables it). Every event's delivered count is
  /// checked against the count its publish reported either way.
  std::size_t check_every = 1;

  /// 0 = centralized single engine; >0 = a broker overlay line of this
  /// size (each broker's notification log read after every publish).
  std::size_t brokers = 0;

  /// Transport between the runner and the engine (see ScenarioTransport).
  ScenarioTransport transport = ScenarioTransport::kInProcess;

  // --- Tracing (sockets transport only) ------------------------------------
  /// Attach a client-side flight recorder to the publisher (every publish
  /// then carries an active trace context, head-sampled per
  /// `trace.sample_every`), record client-side e2e latency on the
  /// subscriber, pull the server's recorder through the traces wire verb
  /// at soak end, and report two-sided span coverage in ScenarioReport.
  bool tracing = false;
  /// Recorder knobs for both sides (a zero sample_every reads
  /// DBSP_TRACE_SAMPLE).
  obs::FlightRecorderOptions trace;

  // --- Durability / crash recovery -----------------------------------------
  /// Non-empty: the centralized and sockets runs open their PubSub from this store
  /// directory (PubSub::open; created when missing) and every churn and
  /// pruning operation is logged durably. Incompatible with overlay mode.
  std::string store_directory;
  /// Phase indices (0-based) that crash the broker mid-phase: after half
  /// the phase's events the PubSub is destroyed without checkpoint or
  /// clean shutdown, reopened from the store, and every registration
  /// re-adopted — matching must stay oracle-exact throughout. Requires
  /// store_directory.
  std::vector<std::size_t> kill_recover_phases;
  /// Auto-checkpoint cadence of the store (WAL records between snapshots).
  std::size_t store_snapshot_every = 256;

  /// The standard 4-phase soak: steady warmup -> heavy churn -> flash
  /// crowd -> drain. Churn rates scale with the initial population.
  [[nodiscard]] static ScenarioConfig soak(std::size_t initial_subs,
                                           std::size_t events_per_phase);
};

struct ScenarioPhaseReport {
  std::string name;
  std::size_t events = 0;
  std::size_t subscribes = 0;
  std::size_t unsubscribes = 0;
  std::size_t prunings = 0;
  std::size_t drift_retrains = 0;
  std::size_t live_subscriptions = 0;  ///< at phase end
  std::size_t associations = 0;        ///< filter-table memory proxy at phase end
  std::uint64_t matches = 0;           ///< notifications delivered
  std::size_t oracle_checked = 0;
  std::size_t oracle_mismatches = 0;
  /// Matching time: facade publish (match + callback dispatch) in
  /// centralized mode, the publish round trip over sockets, per-broker
  /// filter CPU time in overlay mode.
  double match_seconds = 0.0;
  double wall_seconds = 0.0;
  // --- Kill-and-recover (durable runs only) --------------------------------
  std::size_t recoveries = 0;        ///< crash/reopen cycles in this phase
  double recovery_seconds = 0.0;     ///< open() + re-adoption wall time
  std::size_t recovered_subscriptions = 0;  ///< live population after recovery
  std::uint64_t replayed_wal_records = 0;   ///< WAL records open() replayed
};

struct ScenarioReport {
  std::string domain;
  std::string mode;  ///< "centralized", "overlay", or "sockets"
  std::size_t shards = 0;
  std::vector<ScenarioPhaseReport> phases;
  /// Aggregated pruning maintenance counters (all brokers; in
  /// kill-and-recover runs, every PubSub instance the run opened).
  PruningEngine::MaintenanceCounters maintenance;
  /// Full registry scrape (obs::to_json) captured after the last phase —
  /// over sockets through the metrics wire verb, before the clients
  /// disconnect. Empty in overlay mode (no single facade) or with metrics
  /// disabled.
  std::string metrics_json;
  /// Wall time of that final snapshot + serialization, in microseconds —
  /// what one monitoring scrape costs the broker.
  double scrape_cost_us = 0.0;

  // --- Tracing coverage (sockets transport with config.tracing) ------------
  /// Publishes sent while tracing was on (every one carried a context).
  std::size_t traced_publishes = 0;
  /// Of those, head-sampled ones — retained on both sides by contract.
  std::size_t sampled_publishes = 0;
  /// Entries readable from the client-side recorder at soak end.
  std::size_t client_traces = 0;
  /// Entries pulled from the server through the traces wire verb.
  std::size_t server_traces = 0;
  /// Trace ids with spans on *both* sides — a client_request entry here
  /// and a server entry (server_dispatch or delivery) over the wire.
  std::size_t joined_traces = 0;
  /// Client-side publish-to-notification latency samples recorded into
  /// dbsp_e2e_latency_us (subscriber side).
  std::uint64_t e2e_latency_samples = 0;

  /// True iff every oracle check passed in every phase.
  [[nodiscard]] bool exact() const;
  [[nodiscard]] std::size_t total_events() const;
  [[nodiscard]] std::size_t total_churn_ops() const;
  [[nodiscard]] std::size_t total_mismatches() const;
  [[nodiscard]] double total_match_seconds() const;
  [[nodiscard]] double total_wall_seconds() const;
  [[nodiscard]] std::size_t total_recoveries() const;
  [[nodiscard]] double total_recovery_seconds() const;
  [[nodiscard]] std::uint64_t total_replayed_wal_records() const;
};

/// Runs one scenario to completion. Deterministic apart from the timing
/// fields for a given (domain config, ScenarioConfig) pair: all churn,
/// workload, and pruning decisions are seeded, and matching is exercised
/// through the single-event path.
class ScenarioRunner {
 public:
  ScenarioRunner(const WorkloadDomain& domain, ScenarioConfig config);

  [[nodiscard]] ScenarioReport run();

 private:
  const WorkloadDomain* domain_;
  ScenarioConfig config_;
};

}  // namespace dbsp
