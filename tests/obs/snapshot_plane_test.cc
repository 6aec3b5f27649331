/// Property tests for the snapshot plane: epoch monotonicity, COW chunk
/// sharing across publishes, integer-aggregate == recount equality, and —
/// the headline invariant — a flushed snapshot agrees exactly with the
/// engine's own accessors and a `ValidateIndex()` read at the same epoch.
#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/fleet_observer.h"
#include "obs/metrics.h"

namespace easeml::obs {
namespace {

using core::TenantObservation;

TenantObservation MakeObs(int tenant, int rounds, bool schedulable) {
  TenantObservation o;
  o.tenant = tenant;
  o.schedulable = schedulable;
  o.rounds_served = rounds;
  o.best_reward = 0.5;
  return o;
}

/// Recomputes a snapshot's aggregates from its published entries; the
/// plane's running integer diffs must match this exactly (never
/// approximately — that is why `FleetAggregates` holds no double).
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

TEST(SnapshotPlaneTest, SeedsAnEmptyBlockPerShard) {
  SnapshotPlane plane;
  const std::shared_ptr<const FleetSnapshot> snap = plane.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->num_tenants, 0);
  EXPECT_TRUE(snap->chunks.empty());
}

TEST(SnapshotPlaneTest, PublishesAfterIntervalAndOnFlush) {
  SnapshotPlane plane(/*publish_interval=*/4);
  for (int t = 0; t < 2; ++t) plane.Place(t);
  // Two placement events are below the interval and Place never publishes
  // on its own: readers still see the seed snapshot.
  EXPECT_EQ(plane.Snapshot()->epoch, 0u);
  plane.Apply(MakeObs(0, 1, true));
  plane.Apply(MakeObs(1, 1, true));  // 4th event >= interval -> publish
  const std::shared_ptr<const FleetSnapshot> snap = plane.Snapshot();
  EXPECT_EQ(snap->epoch, 4u);
  EXPECT_EQ(snap->num_tenants, 2);
  EXPECT_EQ(snap->at(0).rounds_served, 1);
  // One more event sits unpublished until Flush.
  plane.Apply(MakeObs(0, 2, true));
  EXPECT_EQ(plane.Snapshot()->epoch, 4u);
  plane.Flush();
  const std::shared_ptr<const FleetSnapshot> flushed = plane.Snapshot();
  EXPECT_EQ(flushed->epoch, 5u);
  EXPECT_EQ(flushed->at(0).rounds_served, 2);
}

TEST(SnapshotPlaneTest, EpochsAreMonotonePerShardAndFleetwide) {
  SnapshotPlane plane(/*publish_interval=*/1);
  for (int t = 0; t < 8; ++t) plane.Place(t);
  uint64_t last = 0;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    plane.Apply(MakeObs(rng.UniformInt(0, 7), i, true));
    const uint64_t epoch = plane.Snapshot()->epoch;
    EXPECT_GT(epoch, last);  // interval 1: every apply publishes
    last = epoch;
  }
}

TEST(SnapshotPlaneTest, CowSharesCleanChunksAcrossPublishes) {
  // 128 tenants = exactly two kChunk=64 chunks.
  ASSERT_EQ(kChunk, 64);
  SnapshotPlane plane(/*publish_interval=*/1);
  for (int t = 0; t < 128; ++t) plane.Place(t);
  plane.Apply(MakeObs(3, 1, true));
  plane.Flush();
  const std::shared_ptr<const FleetSnapshot> before = plane.Snapshot();
  ASSERT_EQ(before->chunks.size(), 2u);

  // Dirty only chunk 0: the republished snapshot must share chunk 1's
  // storage (same shared_ptr) with its predecessor.
  plane.Apply(MakeObs(5, 2, true));
  plane.Flush();
  const std::shared_ptr<const FleetSnapshot> after = plane.Snapshot();
  EXPECT_NE(after, before);
  EXPECT_NE(after->chunks[0], before->chunks[0]);
  EXPECT_EQ(after->chunks[1], before->chunks[1]);
  EXPECT_EQ(after->at(5).rounds_served, 2);
  // The predecessor is immutable: the old snapshot still reads the
  // pre-update value.
  EXPECT_EQ(before->at(5).rounds_served, 0);

  // A new tenant opens chunk 2; chunks 0 and 1 stay shared.
  plane.Place(128);
  plane.Flush();
  const std::shared_ptr<const FleetSnapshot> grown = plane.Snapshot();
  ASSERT_EQ(grown->chunks.size(), 3u);
  EXPECT_EQ(grown->num_tenants, 129);
  EXPECT_EQ(grown->chunks[0], after->chunks[0]);
  EXPECT_EQ(grown->chunks[1], after->chunks[1]);
  EXPECT_EQ(grown->at(128).tenant, 128);
}

TEST(SnapshotPlaneTest, AggregatesEqualRecountUnderRandomApplies) {
  SnapshotPlane plane(/*publish_interval=*/5);
  for (int t = 0; t < 100; ++t) plane.Place(t);
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    const int tenant = rng.UniformInt(0, 99);
    TenantObservation o = MakeObs(tenant, rng.UniformInt(0, 20),
                                  rng.UniformInt(0, 1) == 1);
    o.retired = rng.UniformInt(0, 9) == 0;
    o.uninitialized = rng.UniformInt(0, 9) == 0;
    o.in_flight = rng.UniformInt(0, 3);
    plane.Apply(o);
  }
  plane.Flush();
  const std::shared_ptr<const FleetSnapshot> snap = plane.Snapshot();
  EXPECT_TRUE(snap->totals == Recount(*snap));
  for (int t = 0; t < snap->num_tenants; ++t) {
    EXPECT_EQ(snap->at(t).tenant, t);
  }
}

/// The headline property: drive a real campaign through an observed engine,
/// flush — the published snapshot must agree EXACTLY with the engine's own
/// accessors, and the candidate index must validate at the same epoch.
TEST(SnapshotPlaneTest, QuiescedSnapshotMatchesEngineSequential) {
  core::SelectorOptions options;
  options.scheduler = core::SchedulerKind::kGreedy;
  options.num_devices = 3;
  options.use_candidate_index = true;

  Registry registry;
  FleetObserverOptions obs_options;
  obs_options.publish_interval = 7;  // deliberately off-cadence
  obs_options.registry = &registry;
  auto observed = MakeObservedSelector(options, obs_options);
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  core::MultiTenantSelector* selector = observed->selector.get();

  constexpr int kTenants = 30;
  constexpr int kModels = 4;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(selector
                    ->AddTenantWithDefaultPrior(
                        kModels, std::vector<double>(kModels, 1.0))
                    .ok());
  }
  Rng rng(11);
  for (int step = 0; step < 300 && selector->HasDispatchableWork(); ++step) {
    auto a = selector->Next();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(selector->Report(*a, 0.1 + 0.8 * rng.Uniform()).ok());
  }

  ASSERT_TRUE(selector->ValidateIndex().ok());
  observed->observer->plane().Flush();
  const std::shared_ptr<const FleetSnapshot> snap =
      observed->observer->plane().Snapshot();

  const FleetAggregates& totals = snap->totals;
  EXPECT_EQ(totals.tenants, kTenants);
  EXPECT_EQ(totals.in_flight, selector->num_in_flight());
  int expected_rounds = 0;
  for (int t = 0; t < kTenants; ++t) {
    auto served = selector->RoundsServed(t);
    ASSERT_TRUE(served.ok());
    expected_rounds += *served;
  }
  EXPECT_EQ(totals.rounds, expected_rounds);

  int seen = 0;
  snap->ForEachTenant([&](const TenantObservation& o) {
    ++seen;
    auto served = selector->RoundsServed(o.tenant);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(o.rounds_served, *served) << "tenant " << o.tenant;
    auto best = selector->BestAccuracy(o.tenant);
    ASSERT_TRUE(best.ok());
    EXPECT_DOUBLE_EQ(o.best_reward, *best) << "tenant " << o.tenant;
    EXPECT_EQ(o.in_flight, 0) << "tenant " << o.tenant;
  });
  EXPECT_EQ(seen, kTenants);
  EXPECT_TRUE(totals == Recount(*snap));
  // The flush published every event: another flush changes nothing.
  observed->observer->plane().Flush();
  EXPECT_EQ(observed->observer->plane().Snapshot()->epoch, snap->epoch);
  // Every snapshot apply showed up in the metrics layer too.
  EXPECT_GT(registry.GetCounter("easeml_tenant_events")->Value(), 0u);
}

/// Both shard-count fields are 1 or refused, like every option `Create`
/// refuses.
TEST(MakeObservedSelectorTest, RefusesShardCountsOtherThanOne) {
  for (const int shards : {0, 2}) {
    core::SelectorOptions options;
    options.num_shards = shards;
    auto engine = MakeObservedSelector(options, {});
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
        << "selector shards=" << shards;
    FleetObserverOptions obs_options;
    obs_options.num_shards = shards;
    auto observer = MakeObservedSelector({}, obs_options);
    EXPECT_EQ(observer.status().code(), StatusCode::kInvalidArgument)
        << "observer shards=" << shards;
  }
  EXPECT_TRUE(MakeObservedSelector({}, {}).ok());
}

}  // namespace
}  // namespace easeml::obs
