// Cross-thread interleaving stress for the concurrency contracts the
// static-analysis layer annotates: the internally serialized PubSub facade
// (publish vs. subscribe/unsubscribe vs. pruning maintenance), the durable
// store's single-writer discipline, handle release races, and ThreadPool
// construction/shutdown ordering.
//
// These tests are the workload of the TSan CI lane (DBSP_SANITIZE=thread):
// under ThreadSanitizer any facade path that escapes the mutex shows up as
// a data race here. They also run in the normal suite, where they still
// verify linearizable end states (counts, oracle agreement, recovery).
// Iteration counts are deliberately modest — TSan runs 5-15x slower — and
// scale with DBSP_STRESS_SCALE for soak runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/pubsub.hpp"
#include "common/env.hpp"
#include "common/thread_pool.hpp"
#include "test_util.hpp"

namespace dbsp {
namespace {

using test::TempDir;

std::size_t stress_scale() {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, env_int("DBSP_STRESS_SCALE", 1)));
}

PubSubOptions pruning_options(std::size_t shards) {
  PubSubOptions options;
  options.engine.shards = shards;
  options.pruning = true;
  return options;
}

// --- PubSub facade: publish vs. churn vs. maintenance ----------------------

// The tentpole race: publishers stream batches through match_batch (which
// fans out on the engine's internal pool) while other threads churn the
// subscription table and run pruning maintenance — all through the public
// surface, all serialized by the facade mutex. Afterwards the table must be
// exactly the survivors, and dispatch must agree with the per-subscription
// tree oracle.
TEST(ConcurrentStress, PublishChurnAndPruneRaceCleanly) {
  const std::size_t scale = stress_scale();
  test::MiniDomain dom(6, 20);
  PubSub pubsub(dom.schema(), pruning_options(4));

  std::mt19937_64 seed_rng(2026);
  {
    std::vector<Event> sample = dom.random_events(seed_rng, 256);
    pubsub.train(sample).expect_ok();
  }

  // A stable base population that survives the whole test, counting its own
  // notifications (callbacks run under the facade lock, but keep the
  // counters atomic anyway — the test should not depend on that detail).
  auto base_hits = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::vector<SubscriptionHandle> base;
  for (int i = 0; i < 48; ++i) {
    auto result = pubsub.subscribe(
        dom.random_tree(seed_rng, 5, 0.2),
        [base_hits](const Notification&) { base_hits->fetch_add(1); });
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    base.push_back(std::move(result).value());
  }

  std::atomic<std::uint64_t> published{0};
  std::atomic<std::uint64_t> churned{0};
  std::atomic<std::uint64_t> prunings{0};

  const std::size_t publish_rounds = 24 * scale;
  const std::size_t churn_rounds = 48 * scale;
  const std::size_t maintenance_rounds = 16 * scale;

  std::vector<std::thread> threads;

  // Two publishers: single-event and batched dispatch.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(100 + t);
      for (std::size_t round = 0; round < publish_rounds; ++round) {
        if (t == 0) {
          published.fetch_add(pubsub.publish(dom.random_event(rng)));
        } else {
          std::vector<Event> batch = dom.random_events(rng, 8);
          published.fetch_add(pubsub.publish_batch(batch));
        }
      }
    });
  }

  // Two churners: subscribe, keep a small working set, release the oldest.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(200 + t);
      std::vector<SubscriptionHandle> mine;
      for (std::size_t round = 0; round < churn_rounds; ++round) {
        auto result = pubsub.subscribe(dom.random_tree(rng, 4, 0.1));
        ASSERT_TRUE(result.ok()) << result.status().to_string();
        mine.push_back(std::move(result).value());
        if (mine.size() > 6) {
          Status released = mine.front().release();
          ASSERT_TRUE(released.ok()) << released.to_string();
          mine.erase(mine.begin());
          churned.fetch_add(1);
        }
      }
      // Drop the working set through ~SubscriptionHandle while publishers
      // are still running — the RAII unsubscribe path must serialize too.
      churned.fetch_add(mine.size());
    });
  }

  // One maintenance thread: prune, watch the drift trigger, retrain.
  threads.emplace_back([&] {
    std::mt19937_64 rng(300);
    for (std::size_t round = 0; round < maintenance_rounds; ++round) {
      auto pruned = pubsub.prune_to_fraction(0.8);
      ASSERT_TRUE(pruned.ok()) << pruned.status().to_string();
      prunings.fetch_add(pruned.value());
      if (pubsub.drift_pending()) {
        std::vector<Event> sample = dom.random_events(rng, 64);
        pubsub.train(sample).expect_ok();
        pubsub.rescore_all().expect_ok();
      }
    }
  });

  // One reader: introspection entry points race against everything above.
  threads.emplace_back([&] {
    for (std::size_t round = 0; round < churn_rounds; ++round) {
      (void)pubsub.subscription_count();
      (void)pubsub.pruning_stats();
      (void)pubsub.association_count();
      (void)pubsub.counters();
      for (const auto& handle : base) {
        ASSERT_TRUE(handle.active());
      }
    }
  });

  for (auto& thread : threads) thread.join();

  // Linearizable end state: exactly the base population remains.
  EXPECT_EQ(pubsub.subscription_count(), base.size());
  EXPECT_GT(churned.load(), 0u);

  // Dispatch agrees with the direct tree-evaluation oracle.
  std::mt19937_64 check_rng(999);
  for (int i = 0; i < 5; ++i) {
    const Event probe = dom.random_event(check_rng);
    std::size_t oracle = 0;
    for (const SubscriptionId id : pubsub.subscription_ids()) {
      auto matched = pubsub.matches(id, probe);
      ASSERT_TRUE(matched.ok()) << matched.status().to_string();
      oracle += matched.value() ? 1 : 0;
    }
    EXPECT_EQ(pubsub.publish(probe), oracle);
  }
  // Every notification counted by the facade was observed by some caller:
  // publish/publish_batch return values and the base callbacks line up.
  EXPECT_GE(pubsub.counters().matches, published.load());
  EXPECT_GE(pubsub.counters().matches, base_hits->load());
}

// Handles released concurrently from many threads (disjoint slices) while a
// publisher keeps the matching path hot. Every release must succeed exactly
// once and the table must end empty.
TEST(ConcurrentStress, HandleReleaseRaces) {
  test::MiniDomain dom(4, 12);
  PubSub pubsub(dom.schema(), pruning_options(2));

  std::mt19937_64 rng(7);
  constexpr std::size_t kSubs = 64;
  std::vector<SubscriptionHandle> handles;
  handles.reserve(kSubs);
  for (std::size_t i = 0; i < kSubs; ++i) {
    auto result = pubsub.subscribe(dom.random_tree(rng, 3));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    handles.push_back(std::move(result).value());
  }

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::mt19937_64 prng(77);
    while (!stop.load()) {
      (void)pubsub.publish(dom.random_event(prng));
    }
  });

  constexpr std::size_t kReleasers = 4;
  std::vector<std::thread> releasers;
  for (std::size_t t = 0; t < kReleasers; ++t) {
    releasers.emplace_back([&, t] {
      for (std::size_t i = t; i < kSubs; i += kReleasers) {
        Status released = handles[i].release();
        ASSERT_TRUE(released.ok()) << released.to_string();
      }
    });
  }
  for (auto& thread : releasers) thread.join();
  stop.store(true);
  publisher.join();

  EXPECT_EQ(pubsub.subscription_count(), 0u);
  for (const auto& handle : handles) {
    EXPECT_FALSE(handle.attached());
  }
}

// --- Durable store: multi-threaded churn through PubSub::open --------------

// Subscribe/unsubscribe/checkpoint from several threads against one durable
// PubSub: every WAL append runs under the facade mutex (the store is
// single-writer by contract). Afterwards reopen the directory and verify
// the recovered table equals the survivors — the WAL interleaving must be a
// linearization of the concurrent history.
TEST(ConcurrentStress, DurableChurnRecoversExactSurvivors) {
  const std::size_t scale = stress_scale();
  test::MiniDomain dom(5, 16);
  TempDir dir("durable");

  StoreOptions store;
  store.directory = dir.str();
  store.schema = dom.schema();
  store.snapshot_every = 64;  // force auto-checkpoints mid-churn

  std::vector<SubscriptionId> survivors;
  // Declared before the PubSub scope: handles that outlive their PubSub are
  // inert no-ops, so the survivors they claim stay registered in the store.
  std::mutex kept_mutex;
  std::vector<SubscriptionHandle> kept_pool;
  {
    auto opened = PubSub::open(store, pruning_options(2));
    ASSERT_TRUE(opened.ok()) << opened.status().to_string();
    PubSub pubsub = std::move(opened).value();
    ASSERT_TRUE(pubsub.durable());

    {
      std::mt19937_64 rng(11);
      std::vector<Event> sample = dom.random_events(rng, 128);
      pubsub.train(sample).expect_ok();
    }

    const std::size_t churn_rounds = 40 * scale;
    std::vector<std::thread> threads;

    // Three churners, each keeping every third subscription it makes.
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(500 + t);
        std::vector<SubscriptionHandle> kept;
        for (std::size_t round = 0; round < churn_rounds; ++round) {
          auto result = pubsub.subscribe(dom.random_tree(rng, 4, 0.1));
          ASSERT_TRUE(result.ok()) << result.status().to_string();
          SubscriptionHandle handle = std::move(result).value();
          if (round % 3 == 0) {
            kept.push_back(std::move(handle));
          } else {
            Status released = handle.release();
            ASSERT_TRUE(released.ok()) << released.to_string();
          }
        }
        // Park the kept handles in the shared pool so their destructors
        // (which would unsubscribe) run only after the PubSub is gone.
        std::lock_guard<std::mutex> guard(kept_mutex);
        for (auto& handle : kept) kept_pool.push_back(std::move(handle));
      });
    }

    // One checkpointer + publisher thread.
    threads.emplace_back([&] {
      std::mt19937_64 rng(900);
      for (std::size_t round = 0; round < 10 * scale; ++round) {
        std::vector<Event> batch = dom.random_events(rng, 4);
        (void)pubsub.publish_batch(batch);
        Status checkpointed = pubsub.checkpoint();
        ASSERT_TRUE(checkpointed.ok()) << checkpointed.to_string();
      }
    });

    for (auto& thread : threads) thread.join();

    ASSERT_TRUE(pubsub.durable());
    survivors = pubsub.subscription_ids();
    EXPECT_EQ(survivors.size(), kept_pool.size());

    // Destroy the PubSub *before* the kept handles: a handle dropped after
    // its PubSub is a no-op, so the survivors stay in the store.
  }
  kept_pool.clear();

  // Recovery: the reopened table is exactly the survivor set.
  store.create_if_missing = false;
  auto reopened = PubSub::open(store, pruning_options(2));
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened->subscription_ids(), survivors);
  const StoreStats stats = reopened->store_stats();
  EXPECT_TRUE(stats.recovered);
  EXPECT_FALSE(stats.recovered_torn_tail);
}

// --- ThreadPool lifecycle ---------------------------------------------------

// Regression for shutdown ordering: construct/submit/destroy in a tight
// loop. The destructor must drain the queue (every submitted task runs) and
// join cleanly even when destruction races freshly submitted work.
TEST(ConcurrentStress, ThreadPoolConstructDestroyLoop) {
  const std::size_t scale = stress_scale();
  for (std::size_t round = 0; round < 20 * scale; ++round) {
    std::atomic<std::uint64_t> ran{0};
    {
      ThreadPool pool(3);
      for (int i = 0; i < 32; ++i) {
        (void)pool.submit([&ran] { ran.fetch_add(1); });
      }
      // No wait: the destructor is responsible for draining.
    }
    EXPECT_EQ(ran.load(), 32u) << "round " << round;
  }
}

// Many threads submitting into one pool, including from inside pool tasks
// (the nested-submit path a careless shutdown protocol deadlocks on).
TEST(ConcurrentStress, ThreadPoolConcurrentSubmitters) {
  const std::size_t scale = stress_scale();
  for (std::size_t round = 0; round < 4 * scale; ++round) {
    std::atomic<std::uint64_t> ran{0};
    std::vector<std::future<void>> nested;
    std::mutex nested_mutex;
    {
      ThreadPool pool(4);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 3; ++t) {
        submitters.emplace_back([&] {
          for (int i = 0; i < 16; ++i) {
            auto future = pool.submit([&] {
              ran.fetch_add(1);
              // Every fourth task submits a child task from a worker.
              if (ran.load() % 4 == 0) {
                auto child = pool.submit([&ran] { ran.fetch_add(1); });
                std::lock_guard<std::mutex> guard(nested_mutex);
                nested.push_back(std::move(child));
              }
            });
            future.wait();
          }
        });
      }
      for (auto& thread : submitters) thread.join();
      for (auto& future : nested) future.wait();
    }
    EXPECT_GE(ran.load(), 48u);
  }
}

}  // namespace
}  // namespace dbsp
