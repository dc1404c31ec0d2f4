// The PubSub facade and its RAII subscription handles: publish/dispatch
// semantics, the Status/Result error channel, and — the lifetime matrix —
// moved-from handles, double release, handles outliving the PubSub (a
// detectable error, never UB), and automatic pruning-state release on
// handle drop under 1, 2 and 8 match workers, pruned tables that do not
// depend on the worker count, training on NaN-valued events,
// training re-choosing the access leaves of subscribed trees, and raw trees
// on attributes outside the schema (kInvalidArgument, nothing registered
// or logged).

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dbsp/dbsp.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

Schema market_schema() {
  Schema s;
  s.add_attribute("sym", ValueType::String);
  s.add_attribute("price", ValueType::Double);
  s.add_attribute("volume", ValueType::Int);
  return s;
}

Event tick(const PubSub& pubsub, const char* sym, double price,
           std::int64_t volume) {
  return pubsub.event()
      .with("sym", sym)
      .with("price", price)
      .with("volume", volume)
      .build();
}

TEST(PubSubTest, SubscribePublishDispatchesCallbacksInIdOrder) {
  PubSub pubsub(market_schema());
  std::vector<std::pair<std::uint32_t, std::uint64_t>> log;
  const auto record = [&log](const Notification& n) {
    log.emplace_back(n.subscription.value(), n.seq);
  };

  auto acme = pubsub.subscribe(where("sym").eq("ACME"), record).value();
  auto cheap = pubsub.subscribe("price < 50", record).value();
  auto silent = pubsub.subscribe(where("volume").gt(0)).value();  // no callback
  EXPECT_EQ(pubsub.subscription_count(), 3u);
  EXPECT_NE(acme.id(), cheap.id());

  EXPECT_EQ(pubsub.publish(tick(pubsub, "ACME", 10.0, 100)), 3u);
  ASSERT_EQ(log.size(), 2u);  // the silent subscription matched but had no callback
  EXPECT_EQ(log[0].first, acme.id().value());
  EXPECT_EQ(log[1].first, cheap.id().value());
  EXPECT_EQ(log[0].second, log[1].second);

  log.clear();
  EXPECT_EQ(pubsub.publish(tick(pubsub, "INIT", 80.0, 5)), 1u);  // silent only
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(pubsub.counters().matches, 4u);
}

TEST(PubSubTest, PublishBatchMatchesSingleEventDispatch) {
  PubSub pubsub(market_schema());
  std::vector<std::uint64_t> seqs;
  auto h = pubsub.subscribe(where("price").ge(100),
                            [&seqs](const Notification& n) { seqs.push_back(n.seq); })
               .value();
  const std::vector<Event> events = {
      tick(pubsub, "A", 150.0, 1), tick(pubsub, "B", 50.0, 2),
      tick(pubsub, "C", 100.0, 3)};
  EXPECT_EQ(pubsub.publish_batch(events), 2u);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0] + 2, seqs[1]);  // events 0 and 2 of the batch
}

TEST(PubSubTest, ErrorChannelInsteadOfThrows) {
  PubSub pubsub(market_schema());

  const auto bad_filter = pubsub.subscribe(where("missing").eq(1));
  ASSERT_FALSE(bad_filter.ok());
  EXPECT_EQ(bad_filter.status().code(), ErrorCode::kNotFound);

  const auto bad_dsl = pubsub.subscribe("price <");
  ASSERT_FALSE(bad_dsl.ok());
  EXPECT_EQ(bad_dsl.status().code(), ErrorCode::kParseError);

  const auto null_tree = pubsub.subscribe(std::unique_ptr<Node>());
  ASSERT_FALSE(null_tree.ok());
  EXPECT_EQ(null_tree.status().code(), ErrorCode::kInvalidArgument);

  EXPECT_EQ(pubsub.unsubscribe(SubscriptionId(42)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(pubsub.matches(SubscriptionId(42), tick(pubsub, "A", 1, 1)).status().code(),
            ErrorCode::kNotFound);

  // Pruning controls without pruning enabled.
  EXPECT_EQ(pubsub.prune(1).status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pubsub.train({}).code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(pubsub.drift_pending());
  EXPECT_FALSE(pubsub.pruning_stats().enabled);

  // Failed subscribes must not leak engine state or burn ids.
  const auto good = pubsub.subscribe(where("price").gt(0));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(pubsub.subscription_count(), 1u);
}

/// and(price < 10, attr#9 = 1): a raw tree whose second leaf names an
/// attribute the market schema lacks.
std::unique_ptr<Node> tree_outside_schema(const PubSub& pubsub) {
  std::vector<std::unique_ptr<Node>> leaves;
  leaves.push_back(Node::leaf(Predicate(pubsub.schema().at("price"), Op::Lt, Value(10.0))));
  leaves.push_back(Node::leaf(Predicate(AttributeId(9), Op::Eq, Value(1))));
  return Node::and_(std::move(leaves));
}

TEST(PubSubTest, TreeOutsideTheSchemaIsInvalidArgumentAndRegistersNothing) {
  PubSubOptions options;
  options.pruning = true;
  PubSub pubsub(market_schema(), options);
  const auto bad = pubsub.subscribe(tree_outside_schema(pubsub));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(pubsub.subscription_count(), 0u);
  EXPECT_EQ(pubsub.association_count(), 0u);
  EXPECT_EQ(pubsub.pruning_stats().tracked, 0u);
  // The id was not burned.
  EXPECT_EQ(pubsub.subscribe(where("price").gt(0)).value().id(), SubscriptionId(0));
}

TEST(PubSubTest, TreeOutsideTheSchemaAppendsNothingToTheWal) {
  const test::TempDir dir("api_schema");
  StoreOptions store;
  store.directory = dir.str();
  store.schema = market_schema();
  auto opened = PubSub::open(std::move(store));
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  PubSub pubsub = std::move(opened).value();
  const auto bad = pubsub.subscribe(tree_outside_schema(pubsub));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(pubsub.durable());
  EXPECT_EQ(pubsub.store_stats().wal_records, 0u);
  EXPECT_EQ(pubsub.subscription_count(), 0u);
}

TEST(PubSubTest, OracleAndTextAccessors) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("sym").eq("ACME") && where("price").lt(20)).value();
  EXPECT_TRUE(pubsub.matches(h.id(), tick(pubsub, "ACME", 10, 1)).value());
  EXPECT_FALSE(pubsub.matches(h.id(), tick(pubsub, "ACME", 30, 1)).value());
  const std::string text = pubsub.subscription_text(h.id()).value();
  // The stored tree round-trips through the DSL.
  EXPECT_NO_THROW((void)parse_subscription(text, pubsub.schema()));
}

TEST(PubSubTest, UnsimplifiedTreeSubscribesWithPruning) {
  // or(price < 10, and(volume > 5)): pruning the single-child And's leaf
  // would fold the Or to a constant, so the facade simplifies the tree
  // first, as the parser and Filter::compile do.
  PubSubOptions options;
  options.pruning = true;
  PubSub pubsub(market_schema(), options);
  std::vector<std::unique_ptr<Node>> inner;
  inner.push_back(Node::leaf(Predicate(pubsub.schema().at("volume"), Op::Gt, Value(5))));
  std::vector<std::unique_ptr<Node>> outer;
  outer.push_back(Node::leaf(Predicate(pubsub.schema().at("price"), Op::Lt, Value(10.0))));
  outer.push_back(Node::and_(std::move(inner)));
  const auto tree_built = pubsub.subscribe(Node::or_(std::move(outer)));
  ASSERT_TRUE(tree_built.ok()) << tree_built.status().to_string();
  const auto parsed = pubsub.subscribe("price < 10 or volume > 5").value();
  EXPECT_EQ(pubsub.subscription_text(tree_built.value().id()).value(),
            pubsub.subscription_text(parsed.id()).value());
  EXPECT_TRUE(pubsub.prune(10).ok());
  EXPECT_TRUE(pubsub.matches(tree_built.value().id(), tick(pubsub, "A", 50.0, 6)).value());
}

// --- Handle lifetimes --------------------------------------------------------

TEST(SubscriptionHandleTest, DropUnsubscribes) {
  PubSub pubsub(market_schema());
  {
    auto h = pubsub.subscribe(where("price").gt(1)).value();
    EXPECT_TRUE(h.active());
    EXPECT_TRUE(pubsub.contains(h.id()));
    EXPECT_EQ(pubsub.subscription_count(), 1u);
  }
  EXPECT_EQ(pubsub.subscription_count(), 0u);
  EXPECT_EQ(pubsub.publish(tick(pubsub, "A", 10, 1)), 0u);
}

TEST(SubscriptionHandleTest, MovePreservesTheClaim) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("price").gt(1)).value();
  const SubscriptionId id = h.id();

  SubscriptionHandle moved(std::move(h));
  EXPECT_FALSE(h.attached());  // NOLINT(bugprone-use-after-move) — tested on purpose
  EXPECT_FALSE(h.active());
  EXPECT_EQ(h.id(), SubscriptionId());
  EXPECT_TRUE(moved.active());
  EXPECT_EQ(moved.id(), id);
  EXPECT_EQ(pubsub.subscription_count(), 1u);

  // Releasing through the moved-from handle is a detectable error...
  const Status stale = h.release();
  EXPECT_EQ(stale.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(pubsub.subscription_count(), 1u);

  // ...and move-assignment releases the destination's previous claim.
  auto other = pubsub.subscribe(where("volume").gt(0)).value();
  EXPECT_EQ(pubsub.subscription_count(), 2u);
  other = std::move(moved);
  EXPECT_EQ(pubsub.subscription_count(), 1u);
  EXPECT_EQ(other.id(), id);
  EXPECT_TRUE(pubsub.contains(id));
}

TEST(SubscriptionHandleTest, DoubleReleaseIsAnErrorNotUb) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("price").gt(1)).value();
  EXPECT_TRUE(h.release().ok());
  EXPECT_FALSE(h.attached());
  EXPECT_EQ(pubsub.subscription_count(), 0u);

  const Status again = h.release();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), ErrorCode::kFailedPrecondition);
}

TEST(SubscriptionHandleTest, ReleaseAfterExternalUnsubscribeReportsNotFound) {
  PubSub pubsub(market_schema());
  auto h = pubsub.subscribe(where("price").gt(1)).value();
  EXPECT_TRUE(pubsub.unsubscribe(h.id()).ok());
  EXPECT_FALSE(h.active());
  EXPECT_TRUE(h.attached());  // the claim itself was never released
  EXPECT_EQ(h.release().code(), ErrorCode::kNotFound);
}

TEST(SubscriptionHandleTest, HandleOutlivingPubSubIsDetectableNotUb) {
  auto pubsub = std::make_unique<PubSub>(market_schema());
  auto kept = pubsub->subscribe(where("price").gt(1)).value();
  auto dropped = pubsub->subscribe(where("volume").gt(1)).value();

  pubsub.reset();  // the facade dies first

  EXPECT_FALSE(kept.active());
  EXPECT_TRUE(kept.attached());
  const Status released = kept.release();
  EXPECT_FALSE(released.ok());
  EXPECT_EQ(released.code(), ErrorCode::kUnavailable);
  // `dropped` is destroyed after the PubSub — its destructor must be a
  // safe no-op (ASan verifies no use-after-free here).
}

TEST(SubscriptionHandleTest, EmptyHandleIsInert) {
  SubscriptionHandle h;
  EXPECT_FALSE(h.attached());
  EXPECT_FALSE(h.active());
  EXPECT_EQ(h.release().code(), ErrorCode::kFailedPrecondition);
}

// --- Pruning auto-release ----------------------------------------------------

class PubSubPruningTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PubSubPruningTest, HandleDropReleasesPruningState) {
  PubSubOptions options;
  options.engine.shards = GetParam();
  options.pruning = true;
  options.prune.dimension = PruneDimension::MemoryUsage;
  PubSub pubsub(market_schema(), options);
  EXPECT_EQ(pubsub.worker_count(), GetParam());

  // A small training sample so candidate scores are non-degenerate.
  std::vector<Event> sample;
  for (int i = 0; i < 64; ++i) {
    sample.push_back(tick(pubsub, i % 2 == 0 ? "ACME" : "INIT",
                          static_cast<double>(i), i));
  }
  ASSERT_TRUE(pubsub.train(sample).ok());

  std::vector<SubscriptionHandle> handles;
  for (int i = 0; i < 40; ++i) {
    const double lo = static_cast<double>(i);
    handles.push_back(pubsub
                          .subscribe(where("sym").eq(i % 2 == 0 ? "ACME" : "INIT") &&
                                     where("price").between(lo, lo + 10) &&
                                     where("volume").ge(i))
                          .value());
  }
  auto stats = pubsub.pruning_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.tracked, 40u);
  EXPECT_EQ(stats.maintenance.admissions, 40u);
  EXPECT_GT(stats.total_possible, 0u);

  // Prune, then churn out half the population through handle drops: the
  // pruning queues must release automatically (capacity rolls back) and
  // the engine must forget the subscriptions.
  ASSERT_TRUE(pubsub.prune_to_fraction(0.5).ok());
  const std::size_t possible_before = pubsub.pruning_stats().total_possible;
  for (int i = 0; i < 20; ++i) handles.erase(handles.begin());
  stats = pubsub.pruning_stats();
  EXPECT_EQ(stats.tracked, 20u);
  EXPECT_EQ(stats.maintenance.releases, 20u);
  EXPECT_LT(stats.total_possible, possible_before);
  EXPECT_EQ(pubsub.subscription_count(), 20u);

  // The engine still agrees with direct tree evaluation of every live
  // subscription after prune + churn (both sides see the pruned trees).
  for (int e = 0; e < 32; ++e) {
    const Event event = tick(pubsub, e % 2 == 0 ? "ACME" : "INIT",
                             static_cast<double>(e), e);
    std::size_t oracle = 0;
    for (const auto& h : handles) {
      oracle += pubsub.matches(h.id(), event).value() ? 1u : 0u;
    }
    EXPECT_EQ(pubsub.publish(event), oracle);
  }

  // Dropping everything empties engine and queues.
  handles.clear();
  EXPECT_EQ(pubsub.subscription_count(), 0u);
  EXPECT_EQ(pubsub.pruning_stats().tracked, 0u);
  EXPECT_EQ(pubsub.pruning_stats().total_possible, 0u);
}

TEST_P(PubSubPruningTest, SetPruneDimensionRebuildsOverCurrentTrees) {
  PubSubOptions options;
  options.engine.shards = GetParam();
  options.pruning = true;
  PubSub pubsub(market_schema(), options);
  std::vector<SubscriptionHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(pubsub
                          .subscribe(where("price").gt(i) &&
                                     where("volume").lt(100 + i))
                          .value());
  }
  ASSERT_TRUE(pubsub.prune(3).ok());
  ASSERT_TRUE(pubsub.set_prune_dimension(PruneDimension::Throughput).ok());
  auto stats = pubsub.pruning_stats();
  EXPECT_EQ(stats.tracked, 10u);
  EXPECT_EQ(stats.performed, 0u);  // baselines re-captured from current state
  // Queues stay functional after the rebuild.
  EXPECT_TRUE(pubsub.prune(2).ok());
}

INSTANTIATE_TEST_SUITE_P(Workers, PubSubPruningTest, ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "workers" + std::to_string(info.param);
                         });

TEST(PubSubWorkersTest, PrunedTableDoesNotDependOnWorkerCount) {
  // The facade prunes from one global queue: after prune_to_fraction(0.5)
  // every subscription's tree, and every batch delivery, is the same at 1,
  // 2 and 8 workers.
  auto run = [](std::size_t workers) {
    PubSubOptions options;
    options.engine.shards = workers;
    options.pruning = true;
    PubSub pubsub(market_schema(), options);
    std::vector<Event> sample;
    for (int i = 0; i < 200; ++i) {
      sample.push_back(tick(pubsub, i % 3 == 0 ? "ACME" : "INIT",
                            static_cast<double>(i % 97), (i * 7) % 150));
    }
    EXPECT_TRUE(pubsub.train(sample).ok());
    std::vector<SubscriptionHandle> handles;
    for (int i = 0; i < 120; ++i) {
      const double lo = static_cast<double>(i % 80);
      handles.push_back(pubsub
                            .subscribe((where("sym").eq(i % 2 == 0 ? "ACME" : "INIT") ||
                                        where("volume").gt(100 + i % 40)) &&
                                       where("price").between(lo, lo + 5 + i % 20) &&
                                       where("volume").ge(i % 60))
                            .value());
    }
    EXPECT_GT(pubsub.prune_to_fraction(0.5).value(), 0u);
    std::vector<std::string> trees;
    for (const auto& h : handles) trees.push_back(pubsub.subscription_text(h.id()).value());
    trees.push_back(std::to_string(pubsub.publish_batch(sample)));
    return trees;
  };
  const auto one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(8), one);
}

TEST(PubSubWorkersTest, TrainingOnNaNValuesKeepsPruningUsable) {
  // A NaN price in the training sample must not poison the statistics:
  // subscribe and prune_to_fraction still run, and pruning only generalizes.
  PubSubOptions options;
  options.engine.shards = 2;
  options.pruning = true;
  PubSub pubsub(market_schema(), options);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Event> sample;
  sample.push_back(tick(pubsub, "ACME", nan, 1));
  for (int i = 0; i < 50; ++i) {
    sample.push_back(tick(pubsub, "ACME", static_cast<double>(i), i));
  }
  sample.push_back(tick(pubsub, "INIT", nan, 2));
  ASSERT_TRUE(pubsub.train(sample).ok());

  std::vector<SubscriptionHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(pubsub
                          .subscribe(where("sym").eq("ACME") &&
                                     where("price").lt(static_cast<double>(i + 10)) &&
                                     where("volume").ge(i))
                          .value());
  }
  std::vector<std::size_t> before;
  for (const Event& e : sample) before.push_back(pubsub.publish(e));
  const auto pruned = pubsub.prune_to_fraction(0.5);
  ASSERT_TRUE(pruned.ok());
  EXPECT_GT(pruned.value(), 0u);
  for (std::size_t e = 0; e < sample.size(); ++e) {
    EXPECT_GE(pubsub.publish(sample[e]), before[e]) << "event " << e;
  }
}

TEST(PubSubWorkersTest, TrainRechoosesTheAccessLeavesOfSubscribedTrees) {
  // Subscribed before training, the tree counts both leaves (untrained
  // estimates are all 0). Training shows the price bound holds for every
  // event and the symbol for none, so train() stops counting the price.
  PubSubOptions options;
  options.engine.shards = 1;
  options.pruning = true;
  PubSub pubsub(market_schema(), options);
  auto handle = pubsub.subscribe(where("sym").eq("ZZZ") && where("price").lt(1000.0));
  ASSERT_TRUE(handle.ok());
  const Event acme = tick(pubsub, "ACME", 5.0, 1);
  EXPECT_EQ(pubsub.publish(acme), 0u);
  EXPECT_EQ(pubsub.counters().counter_increments, 1u);

  std::vector<Event> sample;
  for (int i = 0; i < 100; ++i) sample.push_back(tick(pubsub, "ACME", i, i));
  ASSERT_TRUE(pubsub.train(sample).ok());
  const CountingMatcher::Counters trained = pubsub.counters();
  EXPECT_EQ(pubsub.publish(acme), 0u);
  EXPECT_EQ(pubsub.counters().counter_increments, trained.counter_increments);
  EXPECT_EQ(pubsub.counters().tree_evaluations, trained.tree_evaluations);
  EXPECT_EQ(pubsub.publish(tick(pubsub, "ZZZ", 5.0, 1)), 1u);
  EXPECT_EQ(pubsub.counters().counter_increments, trained.counter_increments + 1);
}

}  // namespace
}  // namespace dbsp
