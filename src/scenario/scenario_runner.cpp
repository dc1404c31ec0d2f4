#include "scenario/scenario_runner.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "net/client.hpp"
#include "net/server.hpp"

namespace dbsp {

namespace {

/// Fewest window events worth retraining on; the drift trigger waits.
constexpr std::size_t kMinRetrainSample = 32;

/// Pruning is maintained continuously: after every churn tick the table is
/// pruned back up to this fraction of its live capacity.
constexpr double kPruneFraction = 0.5;

/// Drift retraining replays the most recent this many published events.
constexpr std::size_t kStatsWindow = 4096;

using Maintenance = PruningEngine::MaintenanceCounters;
using Phase = ScenarioPhaseReport;
using Ids = std::vector<std::uint64_t>;

void add(Maintenance& total, const Maintenance& m) {
  for (auto field : {&Maintenance::admissions, &Maintenance::releases, &Maintenance::reindexes,
                     &Maintenance::queue_compactions, &Maintenance::full_rescores}) {
    total.*field += m.*field;
  }
}

/// One live subscription, kept in arrival order: ascending-id order too, as
/// every transport assigns ids monotonically.
struct LiveSub {
  std::uint64_t id = 0;
  std::unique_ptr<Node> oracle;  ///< unpruned clone; null if the transport decides
};

/// What differs between the ways the runner reaches the system under soak;
/// the phase loop in ScenarioRunner::run owns everything else. The pruning
/// calls come only with pruning on, crash/recover only in durable runs.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;  // the facade's match callback holds `this`
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  virtual LiveSub subscribe(std::unique_ptr<Node> tree) = 0;
  /// Cancels live subscription `id`, at `index` in arrival order.
  virtual void unsubscribe(std::size_t index, std::uint64_t id) = 0;
  /// Returns the notification count the publish reported.
  virtual std::uint64_t publish(const Event& event) = 0;
  /// The ids the last publish delivered, in any order.
  virtual void collect(std::uint64_t reported, Ids& delivered) = 0;
  /// The oracle: must `sub` receive `event`? By default its clone decides.
  virtual bool expects(const LiveSub& sub, const Event& event) {
    return sub.oracle->evaluate_event(event);
  }

  virtual void train(std::span<const Event> /*sample*/) { unsupported(); }
  /// First pass and drift trigger, once the initial population is in.
  virtual void start_pruning() { unsupported(); }
  virtual std::size_t prune() { unsupported(); }
  virtual bool drift_pending() { unsupported(); }
  virtual void rescore() { unsupported(); }
  /// A kill without checkpoint or clean shutdown.
  virtual void crash() { unsupported(); }
  /// Reopens from the store, re-adopts `live`; returns the WAL records replayed.
  virtual std::uint64_t recover(const std::vector<LiveSub>& /*live*/) { unsupported(); }

  /// Fills the phase's associations (and matching time, where the transport
  /// measures its own) and resets per-phase state.
  virtual void end_phase(Phase& pr) = 0;
  virtual Maintenance maintenance() { return {}; }
  virtual void report_tracing(ScenarioReport& /*report*/) {}
  /// The end-of-run metrics scrape as JSON; empty when there is none.
  virtual std::string scrape() { return {}; }

 private:
  [[noreturn]] static void unsupported() {
    throw std::logic_error("scenario: the transport does not support this run");
  }
};

/// Direct calls into one PubSub facade. Handles mirror the live population
/// (handle destruction unsubscribes and releases pruning state); the oracle
/// is PubSub::matches on each subscription's current tree.
class FacadeTransport final : public Transport {
 public:
  FacadeTransport(std::function<PubSub()> open, const ScenarioConfig& config)
      : open_(std::move(open)), config_(config), pubsub_(open_()) {}

  LiveSub subscribe(std::unique_ptr<Node> tree) override {
    handles_.push_back(pubsub_->subscribe(std::move(tree), on_match_).value());
    return LiveSub{handles_.back().id().value(), nullptr};
  }
  void unsubscribe(std::size_t index, std::uint64_t /*id*/) override {
    handles_.erase(handles_.begin() + static_cast<std::ptrdiff_t>(index));
  }
  std::uint64_t publish(const Event& event) override {
    matched_.clear();
    return pubsub_->publish(event);
  }
  void collect(std::uint64_t, Ids& delivered) override { delivered.swap(matched_); }
  bool expects(const LiveSub& sub, const Event& event) override {
    return pubsub_->matches(subscription_id(sub.id), event).value();
  }

  void train(std::span<const Event> sample) override { pubsub_->train(sample).expect_ok(); }
  void start_pruning() override {
    (void)pubsub_->prune_to_fraction(kPruneFraction).value();
    pubsub_->set_drift_threshold(config_.drift_threshold).expect_ok();
  }
  std::size_t prune() override { return pubsub_->prune_to_fraction(kPruneFraction).value(); }
  bool drift_pending() override { return pubsub_->drift_pending(); }
  void rescore() override { pubsub_->rescore_all().expect_ok(); }

  void crash() override {
    // The dying instance's maintenance counts. Handles of a destroyed core
    // are inert: dropping them afterwards unsubscribes nothing.
    add(lost_, pubsub_->pruning_stats().maintenance);
    pubsub_.reset();
    handles_.clear();
  }
  std::uint64_t recover(const std::vector<LiveSub>& live) override {
    pubsub_.emplace(open_());
    for (const LiveSub& sub : live) {
      handles_.push_back(pubsub_->adopt(subscription_id(sub.id), on_match_).value());
    }
    // Runtime-only knobs are re-armed, not recovered.
    if (config_.pruning) pubsub_->set_drift_threshold(config_.drift_threshold).expect_ok();
    return pubsub_->store_stats().replayed_records;
  }

  void end_phase(Phase& pr) override { pr.associations = pubsub_->association_count(); }
  Maintenance maintenance() override {
    Maintenance total = lost_;
    add(total, pubsub_->pruning_stats().maintenance);
    return total;
  }
  std::string scrape() override { return pubsub_->metrics_json(); }

 private:
  static SubscriptionId subscription_id(std::uint64_t id) {
    return SubscriptionId(static_cast<SubscriptionId::value_type>(id));
  }

  std::function<PubSub()> open_;
  const ScenarioConfig& config_;
  std::optional<PubSub> pubsub_;
  std::vector<SubscriptionHandle> handles_;
  Ids matched_;  ///< of the current publish, in dispatch order
  PubSub::Callback on_match_ = [this](const Notification& n) {
    matched_.push_back(n.subscription.value());
  };
  Maintenance lost_;
};

/// A real broker daemon core: a NetServer on a loopback ephemeral port
/// fronting the PubSub, driven by two DbspClients — one holds every
/// subscription and receives every notification, one publishes. Every
/// operation crosses the dbspd wire protocol. The oracle evaluates
/// unpruned local clones of the live trees.
class SocketsTransport final : public Transport {
 public:
  SocketsTransport(std::function<PubSub()> open, const ScenarioConfig& config)
      : open_(std::move(open)) {
    // Tracing: the publisher owns a client-side flight recorder (every
    // publish carries an active context whose sampled flag crosses the
    // wire); the subscriber records publish-to-receipt e2e latency.
    if (config.tracing) {
      recorder_ = std::make_shared<obs::FlightRecorder>(config.trace);
      registry_ = std::make_shared<obs::MetricsRegistry>();
    }
    start();
  }
  ~SocketsTransport() override {
    // Graceful end: the clients say goodbye first (their clean disconnect
    // releases the subscriptions), then the daemon drains.
    subscriber_.reset();
    publisher_.reset();
    if (server_ != nullptr) server_->stop(/*drain=*/true);
  }

  LiveSub subscribe(std::unique_ptr<Node> tree) override {
    return LiveSub{subscriber_->subscribe(*tree).value(), std::move(tree)};
  }
  void unsubscribe(std::size_t /*index*/, std::uint64_t id) override {
    subscriber_->unsubscribe(id).expect_ok();
  }
  std::uint64_t publish(const Event& event) override {
    // Minted here, not in the client, to count the head-sampled publishes.
    obs::TraceContext context;
    if (recorder_ != nullptr) {
      context = obs::make_trace_context(recorder_->should_sample());
      ++traced_;
      if (context.sampled) ++sampled_;
    }
    return publisher_->publish(event, context).value();
  }
  void collect(std::uint64_t reported, Ids& delivered) override {
    // The only pushes in flight: this thread is the only publisher.
    delivered.clear();
    for (std::uint64_t k = 0; k < reported; ++k) {
      const auto n = subscriber_->next_notification(/*timeout_ms=*/10000).value();
      if (!n.has_value()) break;  // timed out — a real delivery gap
      delivered.push_back(n->subscription);
    }
  }

  void crash() override {
    // No drain, no checkpoint, no client goodbyes: every acknowledged
    // operation is already in the WAL.
    server_->stop(/*drain=*/false);
    subscriber_.reset();
    publisher_.reset();
  }
  std::uint64_t recover(const std::vector<LiveSub>& live) override {
    start();
    for (const LiveSub& sub : live) (void)subscriber_->adopt(sub.id).value();
    PubSub* pubsub = server_->pubsub();
    return pubsub != nullptr ? pubsub->store_stats().replayed_records : 0;
  }
  void end_phase(Phase& pr) override {
    if (PubSub* pubsub = server_->pubsub()) pr.associations = pubsub->association_count();
  }

  void report_tracing(ScenarioReport& report) override {
    if (recorder_ == nullptr) return;
    // Join the client-side ring against the server's (the traces verb).
    report.traced_publishes = traced_;
    report.sampled_publishes = sampled_;
    const std::vector<obs::Trace> client = recorder_->snapshot();
    report.client_traces = client.size();
    auto server = publisher_->traces();
    if (server.ok()) {
      report.server_traces = server.value().traces.size();
      std::unordered_set<std::uint64_t> server_ids;
      for (const obs::Trace& t : server.value().traces) server_ids.insert(t.trace_id);
      for (const obs::Trace& t : client) report.joined_traces += server_ids.count(t.trace_id);
    }
    const obs::MetricsSnapshot latency = registry_->snapshot();
    if (const obs::MetricSnapshot* h = latency.find("dbsp_e2e_latency_us")) {
      report.e2e_latency_samples = h->histogram.count;
    }
  }
  /// Through the metrics verb, which the io thread answers after every
  /// earlier frame: a scrape from this thread would race its bookkeeping.
  std::string scrape() override { return obs::to_json(publisher_->metrics().value()); }

 private:
  void start() {
    net::NetServerOptions options;
    options.port = 0;  // ephemeral; each (re)start binds a fresh port
    server_ = net::NetServer::start(open_(), options).value();
    subscriber_.emplace(connect());
    publisher_.emplace(connect());
    if (recorder_ != nullptr) {
      publisher_->attach_trace_recorder(recorder_);
      subscriber_->attach_metrics(registry_);
    }
  }
  net::DbspClient connect() {
    return net::DbspClient::connect("127.0.0.1", server_->port()).value();
  }

  std::function<PubSub()> open_;
  std::shared_ptr<obs::FlightRecorder> recorder_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<net::NetServer> server_;
  std::optional<net::DbspClient> subscriber_;
  std::optional<net::DbspClient> publisher_;
  std::size_t traced_ = 0;
  std::size_t sampled_ = 0;
};

/// A line of brokers. Subscription i lives at broker i mod B and events
/// are published round-robin within each phase. Each broker prunes only
/// its remote entries, so delivery must match the unpruned clones exactly
/// (paper §2.2). Overlay::publish pumps the network to quiescence, so the
/// notification logs hold all of an event's deliveries when it returns.
class OverlayTransport final : public Transport {
 public:
  OverlayTransport(const WorkloadDomain& domain, const ScenarioConfig& config,
                   const PubSubOptions& options)
      : prune_config_(options.prune),
        drift_threshold_(config.drift_threshold),
        stats_(domain.schema()),
        estimator_(stats_),
        overlay_(domain.schema(), config.brokers, Overlay::line(config.brokers),
                 options.engine) {
    // Summary routing: events cross the line along admitting subgroup
    // summaries, so the oracle checks their no-false-negative contract.
    if (config.aggregation) overlay_.enable_aggregation();
    overlay_.set_record_notifications(true);
    for (std::size_t b = 0; b < config.brokers; ++b) {
      brokers_.push_back(&overlay_.broker(BrokerId(static_cast<BrokerId::value_type>(b))));
    }
  }

  LiveSub subscribe(std::unique_ptr<Node> tree) override {
    const SubscriptionId id(next_id_++);
    std::unique_ptr<Node> oracle = tree->clone();
    overlay_.subscribe(home(id.value()), ClientId(id.value()), id, std::move(tree));
    return LiveSub{id.value(), std::move(oracle)};
  }
  void unsubscribe(std::size_t /*index*/, std::uint64_t id) override {
    overlay_.unsubscribe(home(id), SubscriptionId(static_cast<SubscriptionId::value_type>(id)));
  }
  std::uint64_t publish(const Event& event) override {
    seq_ = overlay_.publish(home(published_++), event);
    return overlay_.total_notifications();
  }
  void collect(std::uint64_t, Ids& delivered) override {
    delivered.clear();
    for (const Broker* broker : brokers_) {
      for (const auto& [sid, seq] : broker->notification_log()) {
        if (seq == seq_) delivered.push_back(sid.value());
      }
    }
    filter_seconds_ += overlay_.total_filter_seconds();
    overlay_.reset_metrics();  // clears the logs, counts and filter timers
  }

  void train(std::span<const Event> sample) override {
    // In place: the brokers' estimators hold the stats by reference.
    stats_.reset();
    for (const Event& e : sample) stats_.observe(e);
    stats_.finalize();
  }
  void start_pruning() override {
    for (Broker* broker : brokers_) {
      sets_.push_back(&broker->enable_pruning(estimator_, prune_config_));
      sets_.back()->prune_to_fraction(kPruneFraction);
      sets_.back()->set_drift_threshold(drift_threshold_);
    }
  }
  std::size_t prune() override {
    std::size_t prunings = 0;
    for (ShardedPruningSet* set : sets_) prunings += set->prune_to_fraction(kPruneFraction);
    return prunings;
  }
  bool drift_pending() override {
    return std::any_of(sets_.begin(), sets_.end(),
                       [](const ShardedPruningSet* set) { return set->drift_pending(); });
  }
  void rescore() override {
    for (ShardedPruningSet* set : sets_) set->rescore_all();
  }

  void end_phase(Phase& pr) override {
    pr.associations = 0;
    for (const Broker* broker : brokers_) pr.associations += broker->engine().association_count();
    pr.match_seconds = filter_seconds_;  // the brokers' filter CPU time
    filter_seconds_ = 0.0;
    published_ = 0;
  }
  Maintenance maintenance() override {
    Maintenance total;
    for (const ShardedPruningSet* set : sets_) add(total, set->maintenance());
    return total;
  }

 private:
  [[nodiscard]] BrokerId home(std::uint64_t n) const {
    return BrokerId(static_cast<BrokerId::value_type>(n % brokers_.size()));
  }

  PruneEngineConfig prune_config_;
  std::size_t drift_threshold_;
  /// Declared before the overlay: brokers with pruning enabled hold the
  /// estimator, and through it the stats, by reference.
  EventStats stats_;
  SelectivityEstimator estimator_;
  Overlay overlay_;
  std::vector<Broker*> brokers_;
  std::vector<ShardedPruningSet*> sets_;  ///< empty with pruning off
  std::uint32_t next_id_ = 0;
  std::size_t published_ = 0;   ///< publishes this phase
  std::uint64_t seq_ = 0;       ///< sequence number of the last publish
  double filter_seconds_ = 0.0;  ///< this phase
};

}  // namespace

ScenarioConfig ScenarioConfig::soak(std::size_t initial_subs,
                                    std::size_t events_per_phase) {
  ScenarioConfig c;
  c.initial_subscriptions = initial_subs;
  // Churn rates scale with the population so the soak stresses the same
  // relative turnover at every size.
  const double unit =
      std::max(0.25, static_cast<double>(initial_subs) / 1000.0);
  c.phases = {
      ScenarioPhase{"warmup", events_per_phase, ChurnConfig{0.05 * unit, 0.05 * unit, 3.0}, false},
      ScenarioPhase{"churn", events_per_phase, ChurnConfig{0.8 * unit, 0.8 * unit, 3.0}, false},
      ScenarioPhase{"flash_crowd", events_per_phase, ChurnConfig{2.5 * unit, 0.3 * unit, 2.0}, true},
      ScenarioPhase{"drain", events_per_phase, ChurnConfig{0.1 * unit, 2.0 * unit, 4.0}, false},
  };
  return c;
}

namespace {

template <class T>
T sum(const std::vector<Phase>& phases, T Phase::*field) {
  T total{};
  for (const Phase& p : phases) total += p.*field;
  return total;
}

}  // namespace

bool ScenarioReport::exact() const { return total_mismatches() == 0; }
std::size_t ScenarioReport::total_events() const { return sum(phases, &Phase::events); }
std::size_t ScenarioReport::total_churn_ops() const {
  return sum(phases, &Phase::subscribes) + sum(phases, &Phase::unsubscribes);
}
std::size_t ScenarioReport::total_mismatches() const {
  return sum(phases, &Phase::oracle_mismatches);
}
double ScenarioReport::total_match_seconds() const { return sum(phases, &Phase::match_seconds); }
double ScenarioReport::total_wall_seconds() const { return sum(phases, &Phase::wall_seconds); }
std::size_t ScenarioReport::total_recoveries() const { return sum(phases, &Phase::recoveries); }
double ScenarioReport::total_recovery_seconds() const {
  return sum(phases, &Phase::recovery_seconds);
}
std::uint64_t ScenarioReport::total_replayed_wal_records() const {
  return sum(phases, &Phase::replayed_wal_records);
}

ScenarioRunner::ScenarioRunner(const WorkloadDomain& domain, ScenarioConfig config)
    : domain_(&domain), config_(std::move(config)) {}

ScenarioReport ScenarioRunner::run() {
  const bool sockets = config_.transport == ScenarioTransport::kSockets;
  const auto require = [](bool holds, const char* what) {
    if (!holds) throw std::logic_error(std::string("scenario: ") + what);
  };
  require(config_.store_directory.empty() || config_.brokers == 0,
          "store-backed runs are centralized only");
  require(config_.kill_recover_phases.empty() || !config_.store_directory.empty(),
          "kill_recover_phases requires store_directory");
  require(!sockets || config_.brokers == 0, "sockets transport is centralized only");
  require(!sockets || !config_.pruning,
          "sockets transport requires pruning off (the oracle holds unpruned "
          "local tree clones)");

  PubSubOptions options;
  options.engine.shards = config_.shards == 0 ? 1 : config_.shards;
  options.pruning = config_.pruning;
  options.prune.dimension = config_.dimension;
  if (config_.tracing) options.trace = config_.trace;
  const auto open = [this, options]() -> PubSub {
    if (config_.store_directory.empty()) return PubSub(domain_->schema(), options);
    StoreOptions store;
    store.directory = config_.store_directory;
    store.schema = domain_->schema();
    store.snapshot_every = config_.store_snapshot_every;
    return PubSub::open(std::move(store), options).value();
  };

  ScenarioReport report;
  report.domain = std::string(domain_->name());
  report.shards = options.engine.shards;
  std::unique_ptr<Transport> transport;
  if (config_.brokers > 0) {
    report.mode = "overlay";
    transport = std::make_unique<OverlayTransport>(*domain_, config_, options);
  } else if (sockets) {
    report.mode = "sockets";
    transport = std::make_unique<SocketsTransport>(open, config_);
  } else {
    report.mode = "centralized";
    transport = std::make_unique<FacadeTransport>(open, config_);
  }
  Transport& t = *transport;

  if (config_.pruning) {
    auto training = domain_->events(3);
    std::vector<Event> sample(config_.training_events);
    for (Event& e : sample) e = training->next();
    t.train(sample);
  }

  std::vector<LiveSub> live;
  live.reserve(config_.initial_subscriptions * 2);
  auto subs_source = domain_->subscriptions(1);
  auto flash_source = domain_->flash_subscriptions(4);
  for (std::size_t i = 0; i < config_.initial_subscriptions; ++i) {
    live.push_back(t.subscribe(subs_source->next()));
  }
  // Armed only now: the initial bulk load is not churn.
  if (config_.pruning) t.start_pruning();

  auto events = domain_->events(2);
  // The retraining sample, a ring of the last kStatsWindow published events
  // (training is order-independent, so the rotation does not matter).
  std::vector<Event> window;
  std::size_t window_next = 0;
  Ids delivered;
  Ids expected;
  for (std::size_t p = 0; p < config_.phases.size(); ++p) {
    const ScenarioPhase& phase = config_.phases[p];
    Phase pr{.name = phase.name, .events = phase.events};
    ChurnProcess churn(phase.churn, config_.seed + 97 * (p + 1));
    SubscriptionSource& arrivals = phase.flash_crowd ? *flash_source : *subs_source;
    const auto& kills = config_.kill_recover_phases;
    const bool kill_here = std::find(kills.begin(), kills.end(), p) != kills.end();

    Stopwatch wall;
    Stopwatch match_watch;
    wall.start();
    for (std::size_t ev = 0; ev < phase.events; ++ev) {
      if (kill_here && ev == phase.events / 2) {
        // Crash mid-phase, then reopen and re-adopt every live subscription
        // in arrival order: the recency-biased churn and the oracle hold on.
        t.crash();
        Stopwatch recovery;
        recovery.start();
        pr.replayed_wal_records += t.recover(live);
        recovery.stop();
        ++pr.recoveries;
        pr.recovery_seconds += recovery.seconds();
        pr.recovered_subscriptions = live.size();
      }

      for (std::size_t a = churn.arrivals(); a > 0; --a) {
        live.push_back(t.subscribe(arrivals.next()));
        ++pr.subscribes;
      }
      for (std::size_t d = churn.departures(); d > 0 && !live.empty(); --d) {
        const std::size_t idx = live.size() - 1 - churn.pick_victim(live.size());
        t.unsubscribe(idx, live[idx].id);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        ++pr.unsubscribes;
      }
      if (config_.pruning) {
        pr.prunings += t.prune();
        if (t.drift_pending() && window.size() >= kMinRetrainSample) {
          t.train(window);
          t.rescore();
          ++pr.drift_retrains;
        }
      }

      const Event event = events->next();
      if (window.size() < kStatsWindow) {
        window.push_back(event);
      } else {
        window[window_next++ % kStatsWindow] = event;
      }
      match_watch.start();
      const std::uint64_t reported = t.publish(event);
      match_watch.stop();
      pr.matches += reported;

      // Every event's delivered count must be the one its publish reported;
      // a checked event's delivered ids must be the oracle's.
      t.collect(reported, delivered);
      std::sort(delivered.begin(), delivered.end());
      bool exact = delivered.size() == reported;
      if (config_.check_every != 0 && ev % config_.check_every == 0) {
        ++pr.oracle_checked;
        expected.clear();
        for (const LiveSub& sub : live) {
          if (t.expects(sub, event)) expected.push_back(sub.id);
        }
        exact = exact && expected == delivered;
      }
      if (!exact) ++pr.oracle_mismatches;
    }
    wall.stop();
    pr.live_subscriptions = live.size();
    pr.match_seconds = match_watch.seconds();
    pr.wall_seconds = wall.seconds();
    t.end_phase(pr);
    report.phases.push_back(std::move(pr));
  }

  report.maintenance = t.maintenance();
  t.report_tracing(report);
  // What one monitoring scrape costs the broker.
  Stopwatch scrape;
  scrape.start();
  report.metrics_json = t.scrape();
  scrape.stop();
  if (!report.metrics_json.empty()) report.scrape_cost_us = scrape.seconds() * 1e6;
  return report;
}

}  // namespace dbsp
