/// ShardPool semantics: FIFO report queues (`Enqueue`/`DrainQueues`),
/// run-to-completion Shutdown, and the RunOn/Enqueue decline protocol —
/// including the regression for the routed-call shutdown race, where
/// `RunOn` used to silently skip the closure and leak the caller's
/// pre-seeded "routed call did not execute" sentinel Status.
#include "shard/shard_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace easeml::shard {
namespace {

TEST(ShardPoolTest, EnqueueRunsTasksInFifoOrderPerWorker) {
  constexpr int kWorkers = 3;
  constexpr int kTasksPerWorker = 50;
  ShardPool pool(kWorkers);
  std::vector<std::vector<int>> order(kWorkers);
  for (int i = 0; i < kTasksPerWorker; ++i) {
    for (int w = 0; w < kWorkers; ++w) {
      // `order` rows are written only by their owning worker; DrainQueues
      // publishes the writes before the reads below.
      EXPECT_TRUE(pool.Enqueue(w, [&order, w, i] { order[w].push_back(i); }));
    }
  }
  pool.DrainQueues();
  for (int w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(order[w].size(), static_cast<size_t>(kTasksPerWorker));
    for (int i = 0; i < kTasksPerWorker; ++i) EXPECT_EQ(order[w][i], i);
  }
}

TEST(ShardPoolTest, DrainQueuesIsANoOpWhenIdle) {
  ShardPool pool(2);
  pool.DrainQueues();  // must not block
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Enqueue(1, [&] { ++ran; }));
  pool.DrainQueues();
  EXPECT_EQ(ran.load(), 1);
  pool.DrainQueues();  // idempotent after the drain
  EXPECT_EQ(ran.load(), 1);
}

TEST(ShardPoolTest, QueuedWorkCoexistsWithBarriersAndSolos) {
  constexpr int kWorkers = 4;
  ShardPool pool(kWorkers);
  std::atomic<int> queued_runs{0};
  std::vector<std::atomic<bool>> queued_done(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_TRUE(pool.Enqueue(w, [&, w] {
      ++queued_runs;
      queued_done[w] = true;
    }));
  }
  // A solo on every worker: each must find its worker's earlier queued
  // task already run (queue tasks always go before pending solo work).
  int solo_runs = 0;
  for (int w = 0; w < kWorkers; ++w) {
    bool saw_queued = false;
    EXPECT_TRUE(pool.RunOn(w, [&, w] { saw_queued = queued_done[w]; }));
    EXPECT_TRUE(saw_queued) << "worker " << w;
    ++solo_runs;
  }
  pool.DrainQueues();
  EXPECT_EQ(queued_runs.load(), kWorkers);
  EXPECT_EQ(solo_runs, kWorkers);
  // Both kinds of closure feed the same CPU accounting.
  const std::vector<double> cpu = pool.WorkerCpuSeconds();
  EXPECT_EQ(cpu.size(), static_cast<size_t>(kWorkers));
}

TEST(ShardPoolTest, ShutdownRunsEveryAcceptedTask) {
  ShardPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Enqueue(i % 2, [&] { ++ran; }));
  }
  // Accepted work must run-to-completion even when Shutdown lands while
  // the queues are still full.
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 200);
}

TEST(ShardPoolTest, ShutdownDeclinesNewWorkWithoutRunningIt) {
  ShardPool pool(2);
  pool.Shutdown();
  pool.Shutdown();  // idempotent
  bool ran = false;
  EXPECT_FALSE(pool.RunOn(0, [&] { ran = true; }));
  EXPECT_FALSE(pool.Enqueue(1, [&] { ran = true; }));
  EXPECT_FALSE(ran);     // a declined closure must never execute
  pool.DrainQueues();    // and an empty drain must not hang
}

/// Regression for the routed-call shutdown race: a caller racing RunOn
/// against Shutdown must get an exact answer — `true` iff the closure ran
/// — never a silent skip. Every accepted closure's side effect must be
/// visible to the caller when RunOn returns true.
TEST(ShardPoolTest, RunOnVersusShutdownRaceReportsExactExecution) {
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<ShardPool>(2);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::thread caller([&] {
      for (int i = 0; i < 1000; ++i) {
        if (pool->RunOn(i % 2, [&] { ++executed; })) {
          ++accepted;
        } else {
          break;  // pool shut down; later calls would also be declined
        }
      }
    });
    pool->Shutdown();
    caller.join();
    EXPECT_EQ(executed.load(), accepted.load());
  }
}

TEST(ShardPoolTest, ConcurrentEnqueuersAllLandBeforeDrainReturns) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  ShardPool pool(3);
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(pool.Enqueue((t + i) % 3, [&] { ++ran; }));
      }
    });
  }
  for (auto& t : threads) t.join();
  pool.DrainQueues();
  EXPECT_EQ(ran.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace easeml::shard
