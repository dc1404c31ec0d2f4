#pragma once

/// \file
/// The umbrella header of the dbsp library — the one include applications,
/// examples, and the scenario subsystem build against:
///
///   #include "dbsp/dbsp.hpp"
///
/// It exports the stable public surface: the PubSub facade with RAII
/// subscription handles, the fluent filter builder and the Status/Result
/// error channel (api/), the durable state store behind `PubSub::open()`
/// (store/), the event model and subscription DSL parser, the broker
/// overlay simulation, the workload domains, the selectivity statistics
/// needed to drive pruning on brokers, and the covering/merging baselines. Everything below these headers (core/, filter/, routing
/// internals) is implementation detail that may change without notice;
/// in-tree consumers of the public surface must not include it directly
/// (CI greps for it).

#include "api/filter.hpp"
#include "api/pubsub.hpp"
#include "api/status.hpp"
#include "broker/overlay.hpp"
#include "common/env.hpp"
#include "common/timer.hpp"
#include "event/event.hpp"
#include "routing/covering.hpp"
#include "routing/merging.hpp"
#include "scenario/workload_domain.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/stats.hpp"
#include "store/state_store.hpp"
#include "subscription/parser.hpp"
