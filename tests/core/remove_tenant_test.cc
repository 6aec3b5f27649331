/// MultiTenantSelector::RemoveTenant — the tenant-churn primitive: refusal
/// taxonomy (in-flight tickets, double
/// removal, unknown ids), exclusion from every scheduling path, retained
/// read-side history, and continued campaign progress for the survivors.
#include "core/multi_tenant_selector.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace easeml::core {
namespace {

using Assignment = MultiTenantSelector::Assignment;

MultiTenantSelector MakeSelector(SchedulerKind kind, int tenants, int models,
                                 int devices = 1) {
  SelectorOptions options;
  options.scheduler = kind;
  options.num_devices = devices;
  auto created = MultiTenantSelector::Create(options);
  EXPECT_TRUE(created.ok());
  MultiTenantSelector selector = std::move(created).value();
  for (int t = 0; t < tenants; ++t) {
    EXPECT_TRUE(selector
                    .AddTenantWithDefaultPrior(
                        models, std::vector<double>(models, 1.0))
                    .ok());
  }
  return selector;
}

TEST(RemoveTenantTest, RefusedWhileTicketsInFlight) {
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kFcfs, /*tenants=*/2, /*models=*/2);
  auto a = selector.Next();
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->tenant, 0);

  const Status refused = selector.RemoveTenant(0);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  // The other tenant has nothing outstanding and may leave immediately.
  EXPECT_TRUE(selector.RemoveTenant(1).ok());

  // After the completion lands, removal succeeds.
  ASSERT_TRUE(selector.Report(*a, 0.5).ok());
  EXPECT_TRUE(selector.RemoveTenant(0).ok());
}

TEST(RemoveTenantTest, RefusalTaxonomy) {
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kFcfs, /*tenants=*/1, /*models=*/2);
  EXPECT_EQ(selector.RemoveTenant(-1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(selector.RemoveTenant(1).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(selector.RemoveTenant(0).ok());
  EXPECT_EQ(selector.RemoveTenant(0).code(),
            StatusCode::kFailedPrecondition);  // already removed
}

TEST(RemoveTenantTest, CancelReturnsTicketAndUnblocksRemoval) {
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kFcfs, /*tenants=*/1, /*models=*/3);
  auto a = selector.Next();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(selector.RemoveTenant(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(selector.Cancel(*a).ok());
  EXPECT_TRUE(selector.RemoveTenant(0).ok());
  EXPECT_TRUE(selector.Exhausted());
}

TEST(RemoveTenantTest, RemovedTenantIsNeverScheduledAgain) {
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kHybrid, /*tenants=*/3, /*models=*/3);
  // Give every tenant one observation so the init sweep is done.
  for (int i = 0; i < 3; ++i) {
    auto a = selector.Next();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(selector.Report(*a, 0.4 + 0.1 * a->tenant).ok());
  }
  ASSERT_TRUE(selector.RemoveTenant(1).ok());
  while (!selector.Exhausted()) {
    auto a = selector.Next();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_NE(a->tenant, 1) << "removed tenant was scheduled";
    ASSERT_TRUE(selector.Report(*a, 0.5).ok());
  }
  // Survivors finished their campaigns in full.
  EXPECT_EQ(selector.RoundsServed(0).value(), 3);
  EXPECT_EQ(selector.RoundsServed(2).value(), 3);
}

TEST(RemoveTenantTest, HistoryStaysReadableAfterRemoval) {
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kFcfs, /*tenants=*/2, /*models=*/2);
  auto a = selector.Next();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(selector.Report(*a, 0.71).ok());
  ASSERT_TRUE(selector.RemoveTenant(0).ok());

  EXPECT_EQ(selector.BestModel(0).value(), a->model);
  EXPECT_DOUBLE_EQ(selector.BestAccuracy(0).value(), 0.71);
  EXPECT_EQ(selector.RoundsServed(0).value(), 1);
  EXPECT_EQ(selector.num_tenants(), 2);  // ids stay stable
}

TEST(RemoveTenantTest, RemovingEveryTenantExhaustsTheSelector) {
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kRoundRobin, /*tenants=*/2, /*models=*/2);
  ASSERT_TRUE(selector.RemoveTenant(0).ok());
  ASSERT_TRUE(selector.RemoveTenant(1).ok());
  EXPECT_TRUE(selector.Exhausted());
  EXPECT_FALSE(selector.HasDispatchableWork());
  auto next = selector.Next();
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RemoveTenantTest, NewTenantsGetFreshIdsAfterRemoval) {
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kFcfs, /*tenants=*/2, /*models=*/2);
  ASSERT_TRUE(selector.RemoveTenant(0).ok());
  auto id = selector.AddTenantWithDefaultPrior(2, {1.0, 1.0});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2);  // ids are never reused
  EXPECT_EQ(selector.num_tenants(), 3);
}

TEST(RemoveTenantTest, GreedySchedulesAroundReleasedBeliefs) {
  // Retiring releases the tenant's policy belief; the GREEDY scan (which
  // inspects every user's policy capabilities) must skip it cleanly.
  MultiTenantSelector selector =
      MakeSelector(SchedulerKind::kGreedy, /*tenants=*/3, /*models=*/2,
                   /*devices=*/2);
  for (int i = 0; i < 3; ++i) {
    auto a = selector.Next();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(selector.Report(*a, 0.3 + 0.2 * a->tenant).ok());
  }
  ASSERT_TRUE(selector.RemoveTenant(2).ok());
  std::set<int> served;
  while (selector.HasDispatchableWork()) {
    auto a = selector.Next();
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    served.insert(a->tenant);
    ASSERT_TRUE(selector.Report(*a, 0.6).ok());
  }
  EXPECT_EQ(served.count(2), 0u);
  EXPECT_TRUE(selector.Exhausted());
}

}  // namespace
}  // namespace easeml::core
