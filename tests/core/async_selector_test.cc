/// Unit tests of the async multi-device selector's ticket protocol: slot
/// and in-flight refusals, the stale/duplicate/unknown/forged report
/// taxonomy, Cancel, and D=1 equivalence with the sequential protocol.
/// Every completion ORDERING of a small campaign is enumerated by the
/// differential harness's orderings profile (tests/differential/).
#include "core/multi_tenant_selector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace easeml::core {
namespace {

using Assignment = MultiTenantSelector::Assignment;

constexpr int kTenants = 2;
constexpr int kModels = 3;
constexpr int kDevices = 2;

/// Deterministic ground-truth accuracy of (tenant, model).
double Accuracy(int tenant, int model) {
  return 0.30 + 0.20 * model + 0.05 * tenant;
}

MultiTenantSelector MakeSelector(SchedulerKind kind, int num_devices,
                                 int tenants = kTenants,
                                 int models = kModels) {
  SelectorOptions opts;
  opts.scheduler = kind;
  opts.cost_aware = false;
  opts.num_devices = num_devices;
  auto s = MultiTenantSelector::Create(opts);
  EXPECT_TRUE(s.ok());
  MultiTenantSelector selector = std::move(s).value();
  for (int t = 0; t < tenants; ++t) {
    EXPECT_TRUE(selector
                    .AddTenantWithDefaultPrior(
                        models, std::vector<double>(models, 1.0))
                    .ok());
  }
  return selector;
}

TEST(AsyncSelectorTest, NextFailsWhileAllDevicesBusy) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  ASSERT_TRUE(s.Next().ok());
  ASSERT_TRUE(s.Next().ok());
  auto third = s.Next();
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(s.HasDispatchableWork());
}

TEST(AsyncSelectorTest, NextFailsWhenEveryRemainingModelIsInFlight) {
  // One tenant, two models, four devices: after two hand-outs nothing is
  // dispatchable although device slots remain free.
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin,
                                       /*num_devices=*/4, /*tenants=*/1,
                                       /*models=*/2);
  ASSERT_TRUE(s.Next().ok());
  ASSERT_TRUE(s.Next().ok());
  EXPECT_FALSE(s.HasDispatchableWork());
  auto next = s.Next();
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(s.Exhausted());  // in-flight work keeps the campaign alive
}

TEST(AsyncSelectorTest, UnknownAssignmentIdIsNotFound) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  auto a = s.Next();
  ASSERT_TRUE(a.ok());
  Assignment unknown = *a;
  unknown.id = 9999;  // never issued
  EXPECT_EQ(s.Report(unknown, 0.5).code(), StatusCode::kNotFound);
  Assignment defaulted;  // id -1: never issued either
  EXPECT_EQ(s.Report(defaulted, 0.5).code(), StatusCode::kNotFound);
  // The real assignment is still reportable: belief state was not touched.
  EXPECT_TRUE(s.Report(*a, 0.5).ok());
  // A never-issued id stays NotFound even with an EMPTY in-flight table
  // (the taxonomy distinguishes it from a stale ticket regardless).
  EXPECT_EQ(s.num_in_flight(), 0);
  EXPECT_EQ(s.Report(unknown, 0.5).code(), StatusCode::kNotFound);
}

TEST(AsyncSelectorTest, DuplicateReportIsFailedPrecondition) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  auto a = s.Next();
  auto b = s.Next();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(s.Report(*a, 0.5).ok());
  // Same ticket again while another assignment is still live: stale.
  EXPECT_EQ(s.Report(*a, 0.5).code(), StatusCode::kFailedPrecondition);
  auto rounds = s.RoundsServed(a->tenant);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 1);  // the duplicate did not touch belief state
  ASSERT_TRUE(s.Report(*b, 0.5).ok());
}

TEST(AsyncSelectorTest, ForgedAssignmentIsInvalidArgument) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  auto a = s.Next();
  ASSERT_TRUE(a.ok());
  Assignment forged_model = *a;
  forged_model.model = (forged_model.model + 1) % kModels;
  EXPECT_EQ(s.Report(forged_model, 0.9).code(),
            StatusCode::kInvalidArgument);
  Assignment forged_tenant = *a;
  forged_tenant.tenant = (forged_tenant.tenant + 1) % kTenants;
  EXPECT_EQ(s.Report(forged_tenant, 0.9).code(),
            StatusCode::kInvalidArgument);
  // The forged reports left the issued entry live and beliefs untouched.
  EXPECT_EQ(s.num_in_flight(), 1);
  EXPECT_FALSE(s.BestModel(a->tenant).ok());
  EXPECT_TRUE(s.Report(*a, 0.9).ok());
}

TEST(AsyncSelectorTest, NonFiniteAccuracyIsRejected) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  auto a = s.Next();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(s.Report(*a, std::numeric_limits<double>::quiet_NaN()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Report(*a, std::numeric_limits<double>::infinity()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(s.Report(*a, 0.5).ok());
}

TEST(AsyncSelectorTest, ReportAfterExhaustionIsFailedPrecondition) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  Assignment last;
  while (!s.Exhausted()) {
    auto a = s.Next();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(s.Report(*a, Accuracy(a->tenant, a->model)).ok());
    last = *a;
  }
  EXPECT_EQ(s.Report(last, 0.5).code(), StatusCode::kFailedPrecondition);
}

TEST(AsyncSelectorTest, CancelReturnsTheTicketWithoutAnObservation) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin,
                                       /*num_devices=*/4, /*tenants=*/1,
                                       /*models=*/2);
  auto a = s.Next();
  auto b = s.Next();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(s.HasDispatchableWork());  // both models charged
  ASSERT_TRUE(s.Cancel(*a).ok());
  // The arm is dispatchable again and no observation was recorded.
  EXPECT_TRUE(s.HasDispatchableWork());
  EXPECT_EQ(s.num_in_flight(), 1);
  auto rounds = s.RoundsServed(0);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 0);
  // The cancelled ticket is dead: reporting it is stale, and the model
  // comes back under a fresh ticket.
  EXPECT_EQ(s.Report(*a, 0.5).code(), StatusCode::kFailedPrecondition);
  auto c = s.Next();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->model, a->model);
  EXPECT_GT(c->id, b->id);
  ASSERT_TRUE(s.Report(*b, 0.4).ok());
  ASSERT_TRUE(s.Report(*c, 0.6).ok());
  EXPECT_TRUE(s.Exhausted());
}

TEST(AsyncSelectorTest, CancelValidatesLikeReport) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  auto a = s.Next();
  ASSERT_TRUE(a.ok());
  Assignment unknown = *a;
  unknown.id = 777;
  EXPECT_EQ(s.Cancel(unknown).code(), StatusCode::kNotFound);
  Assignment forged = *a;
  forged.model = (forged.model + 1) % kModels;
  EXPECT_EQ(s.Cancel(forged).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(s.Cancel(*a).ok());
  EXPECT_EQ(s.Cancel(*a).code(), StatusCode::kFailedPrecondition);  // stale
}

TEST(AsyncSelectorTest, InFlightAssignmentExposesTheIssuedEntry) {
  MultiTenantSelector s = MakeSelector(SchedulerKind::kRoundRobin, kDevices);
  EXPECT_FALSE(s.InFlightAssignment(0).ok());
  auto a = s.Next();
  ASSERT_TRUE(a.ok());
  auto issued = s.InFlightAssignment(a->id);
  ASSERT_TRUE(issued.ok());
  EXPECT_EQ(issued->tenant, a->tenant);
  EXPECT_EQ(issued->model, a->model);
  ASSERT_TRUE(s.Report(*a, 0.5).ok());
  EXPECT_EQ(s.InFlightAssignment(a->id).status().code(),
            StatusCode::kNotFound);
}

TEST(AsyncSelectorTest, CreateRejectsNonPositiveDeviceCount) {
  SelectorOptions opts;
  opts.num_devices = 0;
  EXPECT_FALSE(MultiTenantSelector::Create(opts).ok());
  opts.num_devices = -3;
  EXPECT_FALSE(MultiTenantSelector::Create(opts).ok());
}

TEST(AsyncSelectorTest, SingleDeviceMatchesSequentialProtocol) {
  // D=1 must behave exactly like the seed selector: one outstanding
  // assignment, and the same assignment sequence as a reference run.
  MultiTenantSelector seq = MakeSelector(SchedulerKind::kHybrid, 1);
  MultiTenantSelector async_one = MakeSelector(SchedulerKind::kHybrid, 1);
  while (!seq.Exhausted()) {
    auto a = seq.Next();
    ASSERT_TRUE(a.ok());
    EXPECT_FALSE(seq.Next().ok());  // single slot, like the seed protocol
    auto b = async_one.Next();
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->tenant, b->tenant);
    EXPECT_EQ(a->model, b->model);
    EXPECT_EQ(a->id, b->id);
    ASSERT_TRUE(seq.Report(*a, Accuracy(a->tenant, a->model)).ok());
    ASSERT_TRUE(async_one.Report(*b, Accuracy(b->tenant, b->model)).ok());
  }
  EXPECT_TRUE(async_one.Exhausted());
}

TEST(AsyncSelectorTest, InitializationSweepSkipsChargedTenants) {
  // With two devices and three tenants, the sweep must charge tenants 0
  // and 1 first and NOT hand tenant 0 a second model before its first
  // observation.
  MultiTenantSelector s = MakeSelector(SchedulerKind::kGreedy, kDevices,
                                       /*tenants=*/3);
  auto a = s.Next();
  auto b = s.Next();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->tenant, 0);
  EXPECT_EQ(b->tenant, 1);
  ASSERT_TRUE(s.Report(*a, 0.5).ok());
  // Tenant 2 is still unobserved and uncharged: the sweep serves it before
  // any scheduler decision.
  auto c = s.Next();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->tenant, 2);
}

}  // namespace
}  // namespace easeml::core
