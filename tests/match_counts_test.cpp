// Exact work-count gate: a fixed IoT table and a fixed event stream give
// exact matcher work counts, compared with tests/data/match_counts.txt.
// Time gates move with noise and code placement; these counts do not. A
// change that moves the matcher's work (its access sets, its keys, its
// pruning) updates the file, and that diff is its claim. On a mismatch the
// test prints the file the current code would write.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pruning_set.hpp"
#include "core/sharded_engine.hpp"
#include "scenario/workload_domain.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/stats.hpp"

namespace dbsp {
namespace {

constexpr std::size_t kSubscriptions = 5000;
constexpr std::size_t kTrainingEvents = 5000;
constexpr std::size_t kEvents = 2000;

/// One table's totals, as lines "<table> <count> <value>".
void append_counts(std::ostringstream& out, const char* table, const ShardedEngine& engine,
                   std::size_t prunings) {
  const MatchCounters c = engine.counters();
  const std::pair<const char*, std::uint64_t> rows[] = {
      {"events", c.events},
      {"predicate_hits", c.predicate_hits},
      {"counter_increments", c.counter_increments},
      {"leaf_tests", c.leaf_tests},
      {"tree_evaluations", c.tree_evaluations},
      {"matches", c.matches},
      {"composite_probes", c.composite_probes},
      {"composite_hits", c.composite_hits},
      {"associations", engine.association_count()},
      {"prunings", prunings},
  };
  for (const auto& [name, value] : rows) out << table << ' ' << name << ' ' << value << '\n';
}

/// The IoT table (stream 1) with estimates trained on stream 3, matching
/// stream 2 unpruned and again after pruning to half.
std::string measure() {
  const auto domain = make_iot_workload();
  const auto source = domain->subscriptions(1);
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<Subscription*> pointers;
  for (std::uint32_t i = 0; i < kSubscriptions; ++i) {
    subs.push_back(std::make_unique<Subscription>(SubscriptionId(i), source->next()));
    pointers.push_back(subs.back().get());
  }
  EventStats stats(domain->schema());
  const auto training = domain->events(3);
  for (std::size_t i = 0; i < kTrainingEvents; ++i) stats.observe(training->next());
  stats.finalize();
  const SelectivityEstimator estimator(stats);
  std::vector<Event> events;
  const auto stream = domain->events(2);
  for (std::size_t i = 0; i < kEvents; ++i) events.push_back(stream->next());

  ShardedEngine engine(domain->schema(), ShardedEngineOptions{1});
  for (auto& s : subs) engine.add(*s);
  ShardedPruningSet pruning(engine, estimator, PruneEngineConfig{}, pointers);
  std::ostringstream out;
  std::vector<SubscriptionId> matched;
  const auto run = [&](const char* table, std::size_t prunings) {
    engine.reset_counters();
    for (const Event& e : events) {
      matched.clear();
      engine.match(e, matched);
    }
    append_counts(out, table, engine, prunings);
  };
  run("unpruned", 0);
  run("pruned", pruning.prune_to_fraction(0.5));
  EXPECT_EQ(engine.counting_shard(0).audit(), "");
  return out.str();
}

TEST(MatchCountsTest, IotTableCountsEqualTheCommittedFile) {
  std::ifstream in(DBSP_MATCH_COUNTS_FILE);
  ASSERT_TRUE(in) << "cannot read " << DBSP_MATCH_COUNTS_FILE;
  std::stringstream committed;
  committed << in.rdbuf();
  const std::string got = measure();
  EXPECT_EQ(got, committed.str()) << "counts of this build (the file's new content):\n" << got;
}

}  // namespace
}  // namespace dbsp
