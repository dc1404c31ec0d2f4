// ShardedEngine correctness: the match set must be invariant under the
// worker count (K = 1, 2, 8), rows must be deterministic (sorted
// subscriber ids), batched and single-event dispatch must agree, the
// engine must behave on the edge cases (empty engine, empty batch, fewer
// events than workers), and it must agree with the standalone DNF and
// naive matchers. Also covers the ThreadPool itself.

#include "core/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/candidates.hpp"
#include "core/pruning_set.hpp"
#include "filter/dnf_matcher.hpp"
#include "filter/naive_matcher.hpp"
#include "selectivity/estimator.hpp"
#include "selectivity/exact.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::clone_corpus;
using test::Corpus;
using test::make_corpus;
using test::MiniDomain;

std::vector<SubscriptionId> naive_reference(const Corpus& corpus, const Event& e) {
  NaiveMatcher naive;
  for (const auto& s : corpus.subs) naive.add(*s);
  std::vector<SubscriptionId> out;
  naive.match(e, out);
  std::sort(out.begin(), out.end());
  return out;
}

ShardedEngineOptions counting_options(std::size_t workers) {
  ShardedEngineOptions options;
  options.shards = workers;
  return options;
}

TEST(ShardedEngineTest, WorkerCountInvariance) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(101);
  Corpus corpus = make_corpus(dom, rng, 150, 0.25);
  const auto events = dom.random_events(rng, 200);

  const Corpus c1 = clone_corpus(corpus);
  const Corpus c2 = clone_corpus(corpus);
  const Corpus c8 = clone_corpus(corpus);
  ShardedEngine e1(dom.schema(), counting_options(1));
  ShardedEngine e2(dom.schema(), counting_options(2));
  ShardedEngine e8(dom.schema(), counting_options(8));
  for (std::size_t i = 0; i < corpus.subs.size(); ++i) {
    e1.add(*c1.subs[i]);
    e2.add(*c2.subs[i]);
    e8.add(*c8.subs[i]);
  }
  EXPECT_EQ(e1.worker_count(), 1u);
  EXPECT_EQ(e2.worker_count(), 2u);
  EXPECT_EQ(e8.worker_count(), 8u);
  EXPECT_EQ(e8.shard_count(), 1u);  // one index, whatever the workers

  for (const Event& e : events) {
    std::vector<SubscriptionId> m1, m2, m8;
    e1.match(e, m1);
    e2.match(e, m2);
    e8.match(e, m8);
    ASSERT_EQ(m1, m2);
    ASSERT_EQ(m1, m8);
    ASSERT_EQ(m1, naive_reference(corpus, e));
  }
  const auto b1 = e1.match_batch(events);
  EXPECT_EQ(e2.match_batch(events), b1);
  EXPECT_EQ(e8.match_batch(events), b1);
}

TEST(ShardedEngineTest, BatchCountersSumOverContexts) {
  // Each event is matched once, on whichever context ran it: the summed
  // counters equal a one-worker run of the same batch.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(909);
  Corpus corpus = make_corpus(dom, rng, 100, 0.2);
  const auto events = dom.random_events(rng, 99);
  ShardedEngine one(dom.schema(), counting_options(1));
  ShardedEngine four(dom.schema(), counting_options(4));
  // Skewed estimates, so some leaves are tested in place.
  const auto skewed = [](const Predicate& p) { return p.op() == Op::Eq ? 0.05 : 0.8; };
  one.counting_shard(0).set_leaf_estimate(skewed);
  four.counting_shard(0).set_leaf_estimate(skewed);
  for (auto& s : corpus.subs) {
    one.add(*s);
    four.add(*s);
  }
  (void)one.match_batch(events);
  (void)four.match_batch(events);
  const auto c1 = one.counters();
  const auto c4 = four.counters();
  EXPECT_EQ(c4.events, events.size());
  EXPECT_EQ(c4.events, c1.events);
  EXPECT_EQ(c4.predicate_hits, c1.predicate_hits);
  EXPECT_EQ(c4.counter_increments, c1.counter_increments);
  EXPECT_EQ(c4.tree_evaluations, c1.tree_evaluations);
  EXPECT_GT(c1.leaf_tests, 0u);
  EXPECT_EQ(c4.leaf_tests, c1.leaf_tests);
  EXPECT_EQ(c4.matches, c1.matches);

  four.reset_counters();
  EXPECT_EQ(four.counters().events, 0u);
  EXPECT_THROW((void)four.counting_shard(1), std::out_of_range);
}

TEST(ShardedEngineTest, BatchAgreesWithSingleEventDispatchAndIsSorted) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(202);
  Corpus corpus = make_corpus(dom, rng, 120, 0.2);
  const auto events = dom.random_events(rng, 150);

  ShardedEngine engine(dom.schema(), counting_options(8));
  for (auto& s : corpus.subs) engine.add(*s);

  const auto batch = engine.match_batch(events);
  ASSERT_EQ(batch.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::vector<SubscriptionId> single;
    engine.match(events[i], single);
    EXPECT_EQ(batch[i], single) << "event " << i;
    EXPECT_TRUE(std::is_sorted(batch[i].begin(), batch[i].end()));
    EXPECT_EQ(std::adjacent_find(batch[i].begin(), batch[i].end()), batch[i].end())
        << "duplicate subscriber id";
  }

  // Determinism: a second batched run produces byte-identical results, and
  // the reusable-buffer overload agrees with the allocating one.
  std::vector<std::vector<SubscriptionId>> again;
  engine.match_batch(events, again);
  EXPECT_EQ(batch, again);
}

TEST(ShardedEngineTest, ConcurrentBatchesOnIndependentEnginesAgree) {
  // Two engines over the same subscriptions driven from two threads: safe
  // by the documented guarantee (distinct instances are independent), and
  // a data-race probe under ASan/TSan instrumentation.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(303);
  Corpus corpus = make_corpus(dom, rng, 100, 0.2);
  const auto events = dom.random_events(rng, 300);

  const Corpus corpus_b = clone_corpus(corpus);
  ShardedEngine a(dom.schema(), counting_options(4));
  ShardedEngine b(dom.schema(), counting_options(4));
  for (std::size_t i = 0; i < corpus.subs.size(); ++i) {
    a.add(*corpus.subs[i]);
    b.add(*corpus_b.subs[i]);
  }

  std::vector<std::vector<SubscriptionId>> ra, rb;
  std::thread ta([&] { a.match_batch(events, ra); });
  std::thread tb([&] { b.match_batch(events, rb); });
  ta.join();
  tb.join();
  EXPECT_EQ(ra, rb);
}

TEST(ShardedEngineTest, EmptyEngineAndEmptyBatch) {
  MiniDomain dom(4, 10);
  ShardedEngine engine(dom.schema(), counting_options(8));
  EXPECT_EQ(engine.subscription_count(), 0u);

  std::mt19937_64 rng(404);
  const auto events = dom.random_events(rng, 10);
  const auto batch = engine.match_batch(events);
  for (const auto& row : batch) EXPECT_TRUE(row.empty());

  const auto empty = engine.match_batch(std::span<const Event>{});
  EXPECT_TRUE(empty.empty());

  // Fewer events than workers: the idle workers get no run.
  Corpus corpus = make_corpus(dom, rng, 30, 0.2);
  for (auto& s : corpus.subs) engine.add(*s);
  const auto few = engine.match_batch(std::span<const Event>(events.data(), 3));
  ASSERT_EQ(few.size(), 3u);
  for (std::size_t e = 0; e < few.size(); ++e) {
    EXPECT_EQ(few[e], naive_reference(corpus, events[e]));
  }
}

TEST(ShardedEngineTest, RemoveAndContains) {
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(606);
  Corpus corpus = make_corpus(dom, rng, 60, 0.1);
  ShardedEngine engine(dom.schema(), counting_options(4));
  for (auto& s : corpus.subs) engine.add(*s);
  EXPECT_EQ(engine.subscription_count(), 60u);

  for (std::size_t i = 0; i < corpus.subs.size(); i += 2) {
    engine.remove(corpus.subs[i]->id());
  }
  EXPECT_EQ(engine.subscription_count(), 30u);
  EXPECT_FALSE(engine.contains(SubscriptionId(0)));
  EXPECT_TRUE(engine.contains(SubscriptionId(1)));
  EXPECT_THROW(engine.remove(SubscriptionId(0)), std::out_of_range);

  for (const Event& e : dom.random_events(rng, 50)) {
    std::vector<SubscriptionId> got;
    engine.match(e, got);
    for (const auto id : got) EXPECT_EQ(id.value() % 2, 1u);
  }
}

TEST(ShardedEngineTest, AllBackendsAgreeOnDnfConvertibleCorpus) {
  // The counting engine against the standalone canonical (DNF)
  // matcher and the naive oracle.
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(707);
  Corpus corpus = make_corpus(dom, rng, 80, /*not_prob=*/0.0);
  const auto events = dom.random_events(rng, 120);

  ShardedEngine engine(dom.schema(), counting_options(4));
  DnfMatcher dnf(dom.schema());
  NaiveMatcher naive;
  for (auto& s : corpus.subs) {
    engine.add(*s);
    ASSERT_TRUE(dnf.add(*s));
    naive.add(*s);
  }

  const auto batch = engine.match_batch(events);
  for (std::size_t e = 0; e < events.size(); ++e) {
    std::vector<SubscriptionId> from_dnf;
    dnf.match(events[e], from_dnf);
    std::sort(from_dnf.begin(), from_dnf.end());
    std::vector<SubscriptionId> from_naive;
    naive.match(events[e], from_naive);
    std::sort(from_naive.begin(), from_naive.end());
    EXPECT_EQ(batch[e], from_dnf) << "event " << e;
    EXPECT_EQ(batch[e], from_naive) << "event " << e;
  }
}

TEST(ShardedEngineTest, PruningKeepsMatchesASuperset) {
  // Prune to full capacity: the pruned engine must match a superset of
  // the unpruned one (pruning only generalizes filters).
  MiniDomain dom(5, 16);
  std::mt19937_64 rng(808);
  Corpus corpus = make_corpus(dom, rng, 80, 0.0);
  const auto events = dom.random_events(rng, 150);

  ShardedEngine engine(dom.schema(), counting_options(4));
  for (auto& s : corpus.subs) engine.add(*s);
  const auto before = engine.match_batch(events);

  const SelectivityEstimator estimator(
      [&events](const Predicate& p) { return measured_selectivity(p, events); });
  PruneEngineConfig config;
  config.dimension = PruneDimension::MemoryUsage;
  ShardedPruningSet pruner(engine, estimator, config, corpus.pointers());
  EXPECT_GT(pruner.prune(pruner.total_possible()), 0u);

  const auto after = engine.match_batch(events);
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_TRUE(std::includes(after[e].begin(), after[e].end(), before[e].begin(),
                              before[e].end()))
        << "pruning lost a match for event " << e;
  }
}

TEST(ShardedEngineTest, ResolveShardCountPrecedence) {
  // Explicit request wins over the environment.
  ASSERT_EQ(setenv("DBSP_SHARDS", "5", 1), 0);
  EXPECT_EQ(resolve_shard_count(3), 3u);
  EXPECT_EQ(resolve_shard_count(0), 5u);
  ASSERT_EQ(unsetenv("DBSP_SHARDS"), 0);
  // Without the knob, auto resolves to hardware concurrency (>= 1).
  EXPECT_GE(resolve_shard_count(0), 1u);
  EXPECT_EQ(resolve_shard_count(0), ThreadPool::hardware_threads());
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);  // single worker: tasks queue up behind each other
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor must run everything before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadRequestClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] {});
  EXPECT_NO_THROW(f.get());
}

}  // namespace
}  // namespace dbsp
