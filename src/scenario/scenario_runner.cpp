#include "scenario/scenario_runner.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "net/client.hpp"
#include "net/server.hpp"

namespace dbsp {

namespace {

/// Minimum rolling-window size worth retraining on; below this the drift
/// trigger stays pending until more traffic accumulated.
constexpr std::size_t kMinRetrainSample = 32;

/// End-of-run observability capture: the facade's full registry scrape and
/// what producing it cost — the per-scrape price a monitoring agent pays.
void capture_metrics(PubSub& pubsub, ScenarioReport& report) {
  Stopwatch scrape;
  scrape.start();
  report.metrics_json = pubsub.metrics_json();
  scrape.stop();
  report.scrape_cost_us = scrape.seconds() * 1e6;
}

/// Rolling window of the most recent published events — the retraining
/// sample of the drift-maintenance path. Ring storage; EventStats training
/// is order-independent, so the rotated order is irrelevant.
class RollingWindow {
 public:
  explicit RollingWindow(std::size_t cap) : cap_(cap == 0 ? 1 : cap) {}

  void observe(const Event& e) {
    if (events_.size() < cap_) {
      events_.push_back(e);
    } else {
      events_[next_] = e;
      next_ = (next_ + 1) % cap_;
    }
  }

  [[nodiscard]] bool ready() const { return events_.size() >= kMinRetrainSample; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
  std::size_t cap_;
  std::size_t next_ = 0;
};

/// Overlay-mode drift state: the trained EventStats (broker-side
/// estimators hold it by reference) plus the rolling retrain window. The
/// centralized mode does not need this — the PubSub facade owns its
/// statistics and train() replays the window into them.
class RollingStats {
 public:
  RollingStats(const WorkloadDomain& domain, std::size_t training_events,
               std::size_t window_cap)
      : stats_(domain.schema()), window_(window_cap) {
    auto training = domain.events(3);
    for (std::size_t i = 0; i < training_events; ++i) {
      stats_.observe(training->next());
    }
    stats_.finalize();
  }

  [[nodiscard]] const EventStats& stats() const { return stats_; }

  void observe(const Event& e) { window_.observe(e); }

  /// Retrains in place when drift is pending and the window carries enough
  /// sample. Returns true when it did (the caller then rescores queues).
  bool maybe_retrain(bool drift_pending) {
    if (!drift_pending || !window_.ready()) return false;
    stats_.reset();
    for (const Event& e : window_.events()) stats_.observe(e);
    stats_.finalize();
    return true;
  }

 private:
  EventStats stats_;
  RollingWindow window_;
};

/// One churn tick, identical in both run modes: Poisson arrivals admitted
/// from `arrivals`, recency-biased departures released by index into the
/// arrival-ordered live population. Counters land in `pr`.
template <class AdmitFn, class LiveFn, class ReleaseFn>
void churn_tick(ChurnProcess& churn, SubscriptionSource& arrivals,
                ScenarioPhaseReport& pr, AdmitFn&& admit, LiveFn&& live,
                ReleaseFn&& release) {
  for (std::size_t a = churn.arrivals(); a > 0; --a) {
    admit(arrivals.next());
    ++pr.subscribes;
  }
  for (std::size_t d = churn.departures(); d > 0 && live() > 0; --d) {
    const std::size_t from_newest = churn.pick_victim(live());
    release(live() - 1 - from_newest);
    ++pr.unsubscribes;
  }
}

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

bool ScenarioReport::exact() const {
  for (const auto& p : phases) {
    if (p.oracle_mismatches != 0) return false;
  }
  return true;
}

std::size_t ScenarioReport::total_events() const {
  std::size_t n = 0;
  for (const auto& p : phases) n += p.events;
  return n;
}

std::size_t ScenarioReport::total_churn_ops() const {
  std::size_t n = 0;
  for (const auto& p : phases) n += p.subscribes + p.unsubscribes;
  return n;
}

std::size_t ScenarioReport::total_mismatches() const {
  std::size_t n = 0;
  for (const auto& p : phases) n += p.oracle_mismatches;
  return n;
}

double ScenarioReport::total_match_seconds() const {
  double s = 0.0;
  for (const auto& p : phases) s += p.match_seconds;
  return s;
}

double ScenarioReport::total_wall_seconds() const {
  double s = 0.0;
  for (const auto& p : phases) s += p.wall_seconds;
  return s;
}

std::size_t ScenarioReport::total_recoveries() const {
  std::size_t n = 0;
  for (const auto& p : phases) n += p.recoveries;
  return n;
}

double ScenarioReport::total_recovery_seconds() const {
  double s = 0.0;
  for (const auto& p : phases) s += p.recovery_seconds;
  return s;
}

std::uint64_t ScenarioReport::total_replayed_wal_records() const {
  std::uint64_t n = 0;
  for (const auto& p : phases) n += p.replayed_wal_records;
  return n;
}

ScenarioRunner::ScenarioRunner(const WorkloadDomain& domain, ScenarioConfig config)
    : domain_(&domain), config_(std::move(config)) {}

ScenarioReport ScenarioRunner::run() {
  if (!config_.store_directory.empty() && config_.brokers > 0) {
    throw std::logic_error("scenario: store-backed runs are centralized only");
  }
  if (!config_.kill_recover_phases.empty() && config_.store_directory.empty()) {
    throw std::logic_error("scenario: kill_recover_phases requires store_directory");
  }
  if (config_.transport == ScenarioTransport::kSockets) {
    if (config_.brokers > 0) {
      throw std::logic_error("scenario: sockets transport is centralized only");
    }
    if (config_.pruning) {
      throw std::logic_error(
          "scenario: sockets transport requires pruning off (the oracle holds "
          "unpruned local tree clones)");
    }
    return run_sockets();
  }
  return config_.brokers > 0 ? run_overlay() : run_centralized();
}

ScenarioReport ScenarioRunner::run_centralized() {
  // The system under soak is the public facade: schema, sharded engine and
  // pruning queues all live inside one PubSub; churn goes through RAII
  // handles whose destruction releases engine and pruning state. With a
  // store directory configured, the PubSub opens durably and the
  // kill-and-recover phases crash and reopen it mid-churn.
  PubSubOptions options;
  options.engine.shards = config_.shards == 0 ? 1 : config_.shards;
  options.pruning = config_.pruning;
  options.prune.dimension = config_.dimension;
  options.aggregation = config_.aggregation;
  const bool durable = !config_.store_directory.empty();
  const auto make_pubsub = [&]() -> PubSub {
    if (!durable) return PubSub(domain_->schema(), options);
    StoreOptions store;
    store.directory = config_.store_directory;
    store.schema = domain_->schema();
    store.snapshot_every = config_.store_snapshot_every;
    auto opened = PubSub::open(std::move(store), options);
    if (!opened.ok()) throw std::logic_error(opened.status().to_string());
    return std::move(opened).value();
  };
  std::optional<PubSub> pubsub(make_pubsub());

  RollingWindow window(config_.stats_window);
  if (config_.pruning || config_.aggregation) {
    auto training = domain_->events(3);
    std::vector<Event> sample;
    sample.reserve(config_.training_events);
    for (std::size_t i = 0; i < config_.training_events; ++i) {
      sample.push_back(training->next());
    }
    const Status trained = pubsub->train(sample);
    if (!trained.ok()) throw std::logic_error(trained.to_string());
  }

  // Matched ids of the current publish, filled by the shared callback in
  // dispatch (= ascending id) order.
  std::vector<SubscriptionId> matched;
  const auto on_match = [&matched](const Notification& n) {
    matched.push_back(n.subscription);
  };

  // Live population in arrival order (the facade assigns ids
  // monotonically, so the order is also ascending-id order — what the
  // callbacks deliver).
  std::vector<SubscriptionHandle> live;
  live.reserve(config_.initial_subscriptions * 2);

  auto subs_source = domain_->subscriptions(1);
  auto flash_source = domain_->flash_subscriptions(4);
  auto admit = [&](std::unique_ptr<Node> tree) {
    auto subscribed = pubsub->subscribe(std::move(tree), on_match);
    if (!subscribed.ok()) throw std::logic_error(subscribed.status().to_string());
    live.push_back(std::move(subscribed).value());
  };
  auto release = [&](std::size_t idx) {
    // Handle destruction unsubscribes and releases pruning state.
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
  };
  for (std::size_t i = 0; i < config_.initial_subscriptions; ++i) {
    admit(subs_source->next());
  }
  if (config_.pruning) {
    (void)pubsub->prune_to_fraction(config_.prune_fraction).value();
  }
  if (config_.pruning || config_.aggregation) {
    // Armed only now: the initial bulk load is not churn.
    pubsub->set_drift_threshold(config_.drift_threshold).expect_ok();
  }

  auto events = domain_->events(2);

  ScenarioReport report;
  report.domain = std::string(domain_->name());
  report.mode = "centralized";
  report.shards = pubsub->shard_count();

  std::vector<SubscriptionId> expected;
  std::size_t phase_index = 0;
  for (const ScenarioPhase& phase : config_.phases) {
    ScenarioPhaseReport pr;
    pr.name = phase.name;
    pr.events = phase.events;
    ChurnProcess churn(phase.churn, config_.seed + 97 * ++phase_index);
    SubscriptionSource& arrivals =
        phase.flash_crowd ? *flash_source : *subs_source;

    const bool kill_here =
        std::find(config_.kill_recover_phases.begin(),
                  config_.kill_recover_phases.end(),
                  phase_index - 1) != config_.kill_recover_phases.end();

    Stopwatch wall;
    Stopwatch match_watch;
    wall.start();
    for (std::size_t ev = 0; ev < phase.events; ++ev) {
      if (durable && kill_here && ev == phase.events / 2) {
        // Simulated crash mid-churn: destroy the PubSub with no checkpoint
        // and no clean shutdown — every acknowledged operation is already
        // in the WAL, and the handles in `live` turn inert (their core is
        // gone). Then reopen from the store and re-adopt every recovered
        // registration in ascending-id (= arrival) order, so the
        // recency-biased churn and the oracle below keep their semantics.
        pubsub.reset();
        Stopwatch recovery;
        recovery.start();
        pubsub.emplace(make_pubsub());
        std::vector<SubscriptionHandle> adopted;
        adopted.reserve(live.size());
        for (const SubscriptionId id : pubsub->subscription_ids()) {
          auto handle = pubsub->adopt(id, on_match);
          if (!handle.ok()) throw std::logic_error(handle.status().to_string());
          adopted.push_back(std::move(handle).value());
        }
        live = std::move(adopted);
        if (config_.pruning || config_.aggregation) {
          // Runtime-only knobs are re-armed, not recovered.
          pubsub->set_drift_threshold(config_.drift_threshold).expect_ok();
        }
        recovery.stop();
        ++pr.recoveries;
        pr.recovery_seconds += recovery.seconds();
        pr.recovered_subscriptions = live.size();
        pr.replayed_wal_records += pubsub->store_stats().replayed_records;
      }
      churn_tick(churn, arrivals, pr, admit, [&] { return live.size(); }, release);
      if (config_.pruning) {
        pr.prunings += pubsub->prune_to_fraction(config_.prune_fraction).value();
      }
      if (config_.pruning || config_.aggregation) {
        if (pubsub->drift_pending() && window.ready()) {
          pubsub->train(window.events()).expect_ok();
          pubsub->rescore_all().expect_ok();
          ++pr.drift_retrains;
        }
      }

      const Event event = events->next();
      window.observe(event);

      matched.clear();
      match_watch.start();
      pr.matches += pubsub->publish(event);
      match_watch.stop();

      if (config_.check_every != 0 && ev % config_.check_every == 0) {
        ++pr.oracle_checked;
        expected.clear();
        for (const auto& handle : live) {
          if (pubsub->matches(handle.id(), event).value()) {
            expected.push_back(handle.id());
          }
        }
        if (expected != matched) ++pr.oracle_mismatches;
      }
    }
    wall.stop();
    pr.live_subscriptions = live.size();
    pr.associations = pubsub->association_count();
    pr.match_seconds = match_watch.seconds();
    pr.wall_seconds = wall.seconds();
    report.phases.push_back(std::move(pr));
  }
  report.maintenance = pubsub->pruning_stats().maintenance;
  capture_metrics(*pubsub, report);
  return report;
}

ScenarioReport ScenarioRunner::run_sockets() {
  // The system under soak is a real broker daemon core: a NetServer on a
  // loopback ephemeral port fronting the PubSub, driven by two DbspClients
  // — one holding every subscription (and receiving all notifications),
  // one publishing. Every operation crosses the dbspd wire protocol.
  // Exactness: publish replies carry the matched count n; the runner reads
  // exactly n notification frames and compares the delivered ids against
  // unpruned local oracle clones of the live trees.
  PubSubOptions options;
  options.engine.shards = config_.shards == 0 ? 1 : config_.shards;
  if (config_.tracing) options.trace = config_.trace;
  const bool durable = !config_.store_directory.empty();
  const auto make_pubsub = [&]() -> PubSub {
    if (!durable) return PubSub(domain_->schema(), options);
    StoreOptions store;
    store.directory = config_.store_directory;
    store.schema = domain_->schema();
    store.snapshot_every = config_.store_snapshot_every;
    auto opened = PubSub::open(std::move(store), options);
    if (!opened.ok()) throw std::logic_error(opened.status().to_string());
    return std::move(opened).value();
  };

  net::NetServerOptions server_options;
  server_options.port = 0;  // ephemeral; each (re)start binds a fresh port
  const auto start_server = [&]() -> std::unique_ptr<net::NetServer> {
    auto server = net::NetServer::start(make_pubsub(), server_options);
    if (!server.ok()) throw std::logic_error(server.status().to_string());
    return std::move(server).value();
  };
  std::unique_ptr<net::NetServer> server = start_server();

  const auto connect = [&]() -> net::DbspClient {
    auto client = net::DbspClient::connect("127.0.0.1", server->port());
    if (!client.ok()) throw std::logic_error(client.status().to_string());
    return std::move(client).value();
  };
  // Tracing: the publisher owns a client-side flight recorder (so every
  // publish carries an active context whose sampled flag crosses the wire)
  // and the subscriber records publish-to-receipt e2e latency.
  std::shared_ptr<obs::FlightRecorder> client_recorder;
  std::shared_ptr<obs::MetricsRegistry> client_registry;
  if (config_.tracing) {
    client_recorder = std::make_shared<obs::FlightRecorder>(config_.trace);
    client_registry = std::make_shared<obs::MetricsRegistry>();
  }
  const auto arm_clients = [&](net::DbspClient& sub, net::DbspClient& pub) {
    if (!config_.tracing) return;
    pub.attach_trace_recorder(client_recorder);
    sub.attach_metrics(client_registry);
  };

  std::optional<net::DbspClient> subscriber(connect());
  std::optional<net::DbspClient> publisher(connect());
  arm_clients(*subscriber, *publisher);

  // Live population in arrival (= ascending server-assigned id) order,
  // each with an unpruned oracle clone of its tree.
  struct LiveSub {
    std::uint64_t id;
    std::unique_ptr<Node> oracle_tree;
  };
  std::vector<LiveSub> live;
  live.reserve(config_.initial_subscriptions * 2);

  auto subs_source = domain_->subscriptions(1);
  auto flash_source = domain_->flash_subscriptions(4);
  auto admit = [&](std::unique_ptr<Node> tree) {
    auto id = subscriber->subscribe(*tree);
    if (!id.ok()) throw std::logic_error(id.status().to_string());
    live.push_back(LiveSub{id.value(), std::move(tree)});
  };
  auto release = [&](std::size_t idx) {
    const Status released = subscriber->unsubscribe(live[idx].id);
    if (!released.ok()) throw std::logic_error(released.to_string());
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
  };
  for (std::size_t i = 0; i < config_.initial_subscriptions; ++i) {
    admit(subs_source->next());
  }

  auto events = domain_->events(2);

  ScenarioReport report;
  report.domain = std::string(domain_->name());
  report.mode = "sockets";
  report.shards = options.engine.shards;

  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> delivered;
  std::size_t phase_index = 0;
  for (const ScenarioPhase& phase : config_.phases) {
    ScenarioPhaseReport pr;
    pr.name = phase.name;
    pr.events = phase.events;
    ChurnProcess churn(phase.churn, config_.seed + 97 * ++phase_index);
    SubscriptionSource& arrivals =
        phase.flash_crowd ? *flash_source : *subs_source;

    const bool kill_here =
        std::find(config_.kill_recover_phases.begin(),
                  config_.kill_recover_phases.end(),
                  phase_index - 1) != config_.kill_recover_phases.end();

    Stopwatch wall;
    Stopwatch match_watch;
    wall.start();
    for (std::size_t ev = 0; ev < phase.events; ++ev) {
      if (durable && kill_here && ev == phase.events / 2) {
        // Daemon kill: no drain, no checkpoint, no client goodbyes — the
        // crash path. Every acknowledged operation is already in the WAL,
        // so the restarted daemon recovers warm and the clients reconnect
        // and re-adopt their subscription ids.
        server->stop(/*drain=*/false);
        subscriber.reset();
        publisher.reset();
        Stopwatch recovery;
        recovery.start();
        server = start_server();
        subscriber.emplace(connect());
        publisher.emplace(connect());
        arm_clients(*subscriber, *publisher);
        for (const LiveSub& sub : live) {
          auto adopted = subscriber->adopt(sub.id);
          if (!adopted.ok()) throw std::logic_error(adopted.status().to_string());
        }
        recovery.stop();
        ++pr.recoveries;
        pr.recovery_seconds += recovery.seconds();
        pr.recovered_subscriptions = live.size();
        if (PubSub* pubsub = server->pubsub()) {
          pr.replayed_wal_records += pubsub->store_stats().replayed_records;
        }
      }
      churn_tick(churn, arrivals, pr, admit, [&] { return live.size(); }, release);

      const Event event = events->next();
      // Tracing: mint the context here (rather than inside the client) so
      // the runner can count head-sampled publishes for the coverage report.
      obs::TraceContext trace_ctx;
      if (config_.tracing) {
        trace_ctx = obs::make_trace_context(client_recorder->should_sample());
        ++report.traced_publishes;
        if (trace_ctx.sampled) ++report.sampled_publishes;
      }
      match_watch.start();
      auto matched = publisher->publish(event, trace_ctx);
      match_watch.stop();
      if (!matched.ok()) throw std::logic_error(matched.status().to_string());
      pr.matches += matched.value();

      // Drain exactly the notifications this publish produced (they are
      // the only in-flight pushes: this thread is the only publisher).
      delivered.clear();
      for (std::uint64_t k = 0; k < matched.value(); ++k) {
        auto n = subscriber->next_notification(/*timeout_ms=*/10000);
        if (!n.ok()) throw std::logic_error(n.status().to_string());
        if (!n.value().has_value()) break;  // timed out — a real delivery gap
        delivered.push_back(n.value()->subscription);
      }

      if (config_.check_every != 0 && ev % config_.check_every == 0) {
        ++pr.oracle_checked;
        expected.clear();
        for (const LiveSub& sub : live) {
          if (sub.oracle_tree->evaluate_event(event)) expected.push_back(sub.id);
        }
        std::sort(delivered.begin(), delivered.end());
        if (expected != delivered) ++pr.oracle_mismatches;
      } else if (delivered.size() != matched.value()) {
        ++pr.oracle_mismatches;  // lost notifications count even unchecked
      }
    }
    wall.stop();
    pr.live_subscriptions = live.size();
    if (PubSub* pubsub = server->pubsub()) {
      pr.associations = pubsub->association_count();
    }
    pr.match_seconds = match_watch.seconds();
    pr.wall_seconds = wall.seconds();
    report.phases.push_back(std::move(pr));
  }

  // Tracing coverage: join the client-side ring against the server's
  // through the traces wire verb while the clients are still connected.
  if (config_.tracing) {
    const std::vector<obs::Trace> client_snapshot = client_recorder->snapshot();
    report.client_traces = client_snapshot.size();
    auto server_traces = publisher->traces();
    if (server_traces.ok()) {
      report.server_traces = server_traces.value().traces.size();
      std::unordered_set<std::uint64_t> server_ids;
      for (const obs::Trace& t : server_traces.value().traces) {
        server_ids.insert(t.trace_id);
      }
      for (const obs::Trace& t : client_snapshot) {
        if (server_ids.count(t.trace_id) != 0) ++report.joined_traces;
      }
    }
    const obs::MetricsSnapshot client_metrics = client_registry->snapshot();
    if (const obs::MetricSnapshot* h =
            client_metrics.find("dbsp_e2e_latency_us")) {
      report.e2e_latency_samples = h->histogram.count;
    }
  }

  // Graceful end of the soak: clients say goodbye first (their clean
  // disconnect releases the subscriptions), then the daemon drains.
  subscriber.reset();
  publisher.reset();
  if (PubSub* pubsub = server->pubsub()) capture_metrics(*pubsub, report);
  server->stop(/*drain=*/true);
  return report;
}

ScenarioReport ScenarioRunner::run_overlay() {
  const std::size_t brokers = config_.brokers;
  // The estimator must outlive the overlay: brokers with pruning enabled
  // hold it by reference.
  RollingStats rolling(*domain_, config_.training_events, config_.stats_window);
  const SelectivityEstimator estimator(rolling.stats());

  ShardedEngineOptions engine_options;
  engine_options.shards = config_.shards == 0 ? 1 : config_.shards;
  Overlay overlay(domain_->schema(), brokers, Overlay::line(brokers), {},
                  engine_options);
  // Summary routing: events cross the line along admitting subgroup
  // summaries, so the oracle below checks their no-false-negative contract.
  if (config_.aggregation) overlay.enable_aggregation();
  overlay.set_record_notifications(true);

  const auto broker_at = [&overlay](std::size_t b) -> Broker& {
    return overlay.broker(BrokerId(static_cast<BrokerId::value_type>(b)));
  };

  // Live population (arrival order) with each subscription's home broker
  // and an unpruned oracle copy of its tree. Local entries are never
  // pruned, so delivery must match the oracle exactly (paper §2.2).
  struct LiveSub {
    SubscriptionId id;
    BrokerId home;
    std::unique_ptr<Node> oracle_tree;
  };
  std::vector<LiveSub> live;
  std::uint32_t next_id = 0;

  auto subs_source = domain_->subscriptions(1);
  auto flash_source = domain_->flash_subscriptions(4);
  auto admit = [&](std::unique_ptr<Node> tree) {
    const SubscriptionId id(next_id);
    const BrokerId home(static_cast<BrokerId::value_type>(next_id % brokers));
    ++next_id;
    std::unique_ptr<Node> oracle = tree->clone();
    overlay.subscribe(home, ClientId(id.value()), id, std::move(tree));
    live.push_back(LiveSub{id, home, std::move(oracle)});
  };
  auto release = [&](std::size_t idx) {
    overlay.unsubscribe(live[idx].home, live[idx].id);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
  };
  for (std::size_t i = 0; i < config_.initial_subscriptions; ++i) {
    admit(subs_source->next());
  }

  // Broker-owned pruning over each broker's remote entries; churn stays in
  // sync automatically for as long as pruning is enabled.
  PruneEngineConfig prune_config;
  prune_config.dimension = config_.dimension;
  if (config_.pruning) {
    for (std::size_t b = 0; b < brokers; ++b) {
      ShardedPruningSet& set = broker_at(b).enable_pruning(estimator, prune_config);
      set.prune_to_fraction(config_.prune_fraction);
      set.set_drift_threshold(config_.drift_threshold);
    }
  }

  auto events = domain_->events(2);

  ScenarioReport report;
  report.domain = std::string(domain_->name());
  report.mode = "overlay";
  report.shards = engine_options.shards;

  std::size_t phase_index = 0;
  for (const ScenarioPhase& phase : config_.phases) {
    ScenarioPhaseReport pr;
    pr.name = phase.name;
    pr.events = phase.events;
    ChurnProcess churn(phase.churn, config_.seed + 97 * ++phase_index);
    SubscriptionSource& arrivals =
        phase.flash_crowd ? *flash_source : *subs_source;

    // seq -> expected sorted subscriber ids, computed at publish time from
    // the oracle trees of the then-live population.
    std::map<std::uint64_t, std::vector<SubscriptionId>> expected;

    Stopwatch wall;
    wall.start();
    for (std::size_t ev = 0; ev < phase.events; ++ev) {
      churn_tick(churn, arrivals, pr, admit, [&] { return live.size(); }, release);
      if (config_.pruning) {
        bool drift = false;
        for (std::size_t b = 0; b < brokers; ++b) {
          ShardedPruningSet* set = broker_at(b).pruning();
          pr.prunings += set->prune_to_fraction(config_.prune_fraction);
          drift = drift || set->drift_pending();
        }
        if (rolling.maybe_retrain(drift)) {
          for (std::size_t b = 0; b < brokers; ++b) {
            broker_at(b).pruning()->rescore_all();
          }
          ++pr.drift_retrains;
        }
      }

      const Event event = events->next();
      rolling.observe(event);

      const BrokerId at(static_cast<BrokerId::value_type>(ev % brokers));
      const std::uint64_t seq = overlay.publish(at, event);
      auto& exp = expected[seq];
      for (const LiveSub& s : live) {
        if (s.oracle_tree->evaluate_event(event)) exp.push_back(s.id);
      }
    }
    wall.stop();

    // Phase-end verification: the union of the brokers' notification logs
    // must equal the oracle expectation for every published event.
    std::map<std::uint64_t, std::vector<SubscriptionId>> actual;
    for (const auto& [seq, ids] : expected) actual[seq];  // seed empty rows
    std::uint64_t notifications = 0;
    for (std::size_t b = 0; b < brokers; ++b) {
      const Broker& broker = broker_at(b);
      notifications += broker.notifications_delivered();
      for (const auto& [sid, seq] : broker.notification_log()) {
        actual[seq].push_back(sid);
      }
    }
    pr.oracle_checked = expected.size();
    for (auto& [seq, ids] : actual) {
      std::sort(ids.begin(), ids.end());
      const auto it = expected.find(seq);
      if (it == expected.end() || it->second != ids) ++pr.oracle_mismatches;
    }

    pr.matches = notifications;
    pr.live_subscriptions = live.size();
    std::size_t assocs = 0;
    double filter_seconds = 0.0;
    for (std::size_t b = 0; b < brokers; ++b) {
      const Broker& broker = broker_at(b);
      assocs += broker.engine().association_count();
      filter_seconds += broker.filter_seconds();
    }
    pr.associations = assocs;
    pr.match_seconds = filter_seconds;
    pr.wall_seconds = wall.seconds();
    report.phases.push_back(std::move(pr));
    overlay.reset_metrics();  // clears logs and filter timers for the next phase
  }

  if (config_.pruning) {
    for (std::size_t b = 0; b < brokers; ++b) {
      const auto m = broker_at(b).pruning()->maintenance();
      report.maintenance.admissions += m.admissions;
      report.maintenance.releases += m.releases;
      report.maintenance.queue_compactions += m.queue_compactions;
      report.maintenance.full_rescores += m.full_rescores;
    }
  }
  return report;
}

}  // namespace dbsp
