/// TSan-raced snapshot-consistency battery: scanner threads walk
/// `SnapshotPlane::Snapshot()` continuously while client threads drive
/// Next/Report/Cancel and a churn thread adds and removes tenants (clients
/// and churn serialized on one mutex, the engine's contract). Every
/// observed snapshot must be internally consistent no matter when the scan
/// lands:
///   - epochs never move backwards between scans,
///   - aggregates equal an exact integer recount of the entries,
///   - entry t carries tenant t,
/// and after the fleet quiesces, a flushed snapshot agrees with the
/// engine's accessors. tier1.sh's tsan preset runs this file under
/// ThreadSanitizer — the racy half of the plane's correctness argument.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/multi_tenant_selector.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"
#include "common/thread_annotations.h"
#include "obs/snapshot.h"

namespace easeml::obs {
namespace {

using core::MultiTenantSelector;
using core::TenantObservation;
using Assignment = MultiTenantSelector::Assignment;

FleetAggregates Recount(const FleetSnapshot& snap) {
  FleetAggregates agg;
  snap.ForEachTenant([&agg](const TenantObservation& o) {
    agg.tenants += 1;
    agg.retired += o.retired ? 1 : 0;
    agg.schedulable += o.schedulable ? 1 : 0;
    agg.uninitialized += o.uninitialized ? 1 : 0;
    agg.in_flight += o.in_flight;
    agg.rounds += o.rounds_served;
  });
  return agg;
}

/// One full-fleet scan with every internal-consistency check applied;
/// returns false (and records a gtest failure) on the first violation so
/// the battery aborts instead of flooding the log.
bool CheckedScan(const SnapshotPlane& plane, uint64_t* last_epoch) {
  const std::shared_ptr<const FleetSnapshot> snap = plane.Snapshot();
  if (snap == nullptr) {
    ADD_FAILURE() << "null snapshot";
    return false;
  }
  if (snap->epoch < *last_epoch) {
    ADD_FAILURE() << "epoch moved backwards: " << *last_epoch << " -> "
                  << snap->epoch;
    return false;
  }
  *last_epoch = snap->epoch;
  if (!(snap->totals == Recount(*snap))) {
    ADD_FAILURE() << "aggregates disagree with a recount of the published "
                  << "entries at epoch " << snap->epoch;
    return false;
  }
  for (int t = 0; t < snap->num_tenants; ++t) {
    if (snap->at(t).tenant != t) {
      ADD_FAILURE() << "entry " << t << " carries tenant "
                    << snap->at(t).tenant;
      return false;
    }
  }
  return true;
}

TEST(SnapshotStressTest, RacedScansOneShard) {
  constexpr int kInitialTenants = 24;
  constexpr int kModels = 5;
  constexpr int kClientThreads = 2;
  constexpr int kScannerThreads = 2;
  constexpr int kOpsPerClient = 300;

  core::SelectorOptions options;
  options.scheduler = core::SchedulerKind::kGreedy;
  options.num_devices = 6;
  options.use_candidate_index = true;

  Registry registry;
  FleetObserverOptions obs_options;
  obs_options.publish_interval = 3;  // publish often: more racing windows
  obs_options.registry = &registry;
  FleetObserver observer(obs_options);
  options.observer = &observer;
  auto created = MultiTenantSelector::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  // The engine is single-threaded: clients and churn serialize on `mu`,
  // as the service does on its own mutex. Scanners never take it — they
  // read the plane lock-free, which is what this battery races.
  Mutex mu;
  MultiTenantSelector* selector = &created.value();
  const SnapshotPlane& plane = observer.plane();
  for (int t = 0; t < kInitialTenants; ++t) {
    ASSERT_TRUE(selector
                    ->AddTenantWithDefaultPrior(
                        kModels, std::vector<double>(kModels, 1.0))
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<int64_t> scans{0};

  // Each scanner completes one checked scan before it first reads `stop`,
  // so `scans > 0` holds whatever the thread interleaving.
  auto scanner = [&] {
    uint64_t last_epoch = 0;
    do {
      if (!CheckedScan(plane, &last_epoch)) {
        failed = true;
        return;
      }
      scans.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();  // be fair on a one-core host
    } while (!stop.load(std::memory_order_relaxed));
  };

  auto client = [&](int thread_id) {
    Rng rng(500 + static_cast<uint64_t>(thread_id));
    std::vector<Assignment> mine;
    for (int op = 0; op < kOpsPerClient && !failed.load(); ++op) {
      const int dice = rng.UniformInt(0, 9);
      MutexLock lock(mu);
      if (mine.empty() || dice < 5) {
        auto a = selector->Next();
        if (a.ok()) {
          mine.push_back(*a);
        } else if (a.status().code() != StatusCode::kFailedPrecondition) {
          ADD_FAILURE() << "Next: " << a.status().ToString();
          failed = true;
        }
      } else {
        const int pick = rng.UniformInt(0, static_cast<int>(mine.size()) - 1);
        const Assignment a = mine[pick];
        mine.erase(mine.begin() + pick);
        const Status st = dice == 9
                              ? selector->Cancel(a)
                              : selector->Report(a, 0.1 + 0.8 * rng.Uniform());
        if (!st.ok()) {
          ADD_FAILURE() << (dice == 9 ? "Cancel: " : "Report: ")
                        << st.ToString();
          failed = true;
        }
      }
    }
    MutexLock lock(mu);
    for (const Assignment& a : mine) selector->Cancel(a);
  };

  std::atomic<bool> stop_churn{false};
  auto churn = [&] {
    Rng rng(77);
    int added = 0;
    // Fixed removal budget: at most half the initial tenants are retired,
    // so the clients always have live tenants to draw tickets from and
    // progress never depends on how the scheduler interleaves threads
    // (an unbounded loop could retire the whole fleet first).
    constexpr int kRemovalBudget = kInitialTenants / 2;
    int removed = 0;
    while (!stop_churn.load()) {
      {
        MutexLock lock(mu);
        if (removed < kRemovalBudget) {
          const Status st = selector->RemoveTenant(
              rng.UniformInt(0, selector->num_tenants() - 1));
          if (st.ok()) {
            ++removed;
          } else if (st.code() != StatusCode::kFailedPrecondition &&
                     st.code() != StatusCode::kOutOfRange) {
            ADD_FAILURE() << "RemoveTenant: " << st.ToString();
            failed = true;
          }
        }
        if (added < 6 && rng.UniformInt(0, 2) == 0) {
          auto id = selector->AddTenantWithDefaultPrior(
              kModels, std::vector<double>(kModels, 1.0));
          if (id.ok()) {
            ++added;
          } else {
            ADD_FAILURE() << "AddTenant: " << id.status().ToString();
            failed = true;
          }
        }
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int s = 0; s < kScannerThreads; ++s) threads.emplace_back(scanner);
  threads.emplace_back(churn);
  for (int c = 0; c < kClientThreads; ++c) threads.emplace_back(client, c);
  for (size_t i = threads.size() - kClientThreads; i < threads.size(); ++i) {
    threads[i].join();
  }
  stop_churn = true;
  threads[kScannerThreads].join();  // churn
  stop = true;
  for (int s = 0; s < kScannerThreads; ++s) threads[static_cast<size_t>(s)].join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(selector->num_in_flight(), 0);

  // Quiesced epilogue (every writer joined): flush, then the published
  // world must match the engine's — the raced scans above plus this anchor
  // give the snapshot plane's full correctness story.
  ASSERT_TRUE(selector->ValidateIndex().ok());
  observer.plane().Flush();
  const std::shared_ptr<const FleetSnapshot> snap = plane.Snapshot();
  EXPECT_EQ(snap->totals.in_flight, 0);
  EXPECT_EQ(snap->num_tenants, selector->num_tenants());
  snap->ForEachTenant([&](const TenantObservation& o) {
    auto served = selector->RoundsServed(o.tenant);
    ASSERT_TRUE(served.ok()) << "tenant " << o.tenant;
    EXPECT_EQ(o.rounds_served, *served) << "tenant " << o.tenant;
  });
}

}  // namespace
}  // namespace easeml::obs
