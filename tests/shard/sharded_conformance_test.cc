/// The heap factory `shard::MakeSelector` and a pinned golden trace of the
/// engine it builds. That every index, WAL and observer configuration
/// replays the scan engine op-for-op is checked by the differential harness
/// (tests/differential/).
#include "shard/sharded_selector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/multi_tenant_selector.h"

namespace easeml::shard {
namespace {

using core::MultiTenantSelector;
using core::SchedulerKind;
using core::SelectorOptions;
using Assignment = MultiTenantSelector::Assignment;

/// Deterministic ground-truth accuracy in (0, 1): an integer hash, NOT libm
/// transcendentals, so every platform and thread computes identical bits.
double Accuracy(int tenant, int model) {
  const uint64_t x = SplitMix64(static_cast<uint64_t>(tenant) * 1000003u +
                                static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

std::vector<double> Costs(int tenant, int models) {
  std::vector<double> costs;
  for (int m = 0; m < models; ++m) {
    costs.push_back(1.0 + 0.25 * ((tenant + m) % models));
  }
  return costs;
}

SelectorOptions MakeOptions(SchedulerKind kind, int devices, int shards) {
  SelectorOptions options;
  options.scheduler = kind;
  options.hybrid_patience = 3;  // small enough to exercise the freeze switch
  options.seed = 7;
  options.num_devices = devices;
  options.num_shards = shards;
  return options;
}

/// The factory builds the one engine at 1 shard and refuses every other
/// shard count, like `MultiTenantSelector::Create`.
TEST(MakeSelectorTest, SelectsEngineByShardCount) {
  auto engine = MakeSelector(MakeOptions(SchedulerKind::kGreedy, 1, 1));
  ASSERT_TRUE(engine.ok());
  ASSERT_NE(*engine, nullptr);
  ASSERT_TRUE((*engine)->AddTenantWithDefaultPrior(3, {1.0, 1.0, 1.0}).ok());
  auto a = (*engine)->Next();
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE((*engine)->Report(*a, 0.5).ok());

  for (const int shards : {0, 2}) {
    auto bad = MakeSelector(MakeOptions(SchedulerKind::kGreedy, 1, shards));
    EXPECT_FALSE(bad.ok()) << "shards=" << shards;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
}

/// Golden trace: the full HYBRID campaign (T=6, K=3, D=2), pinned event by
/// event. Guards the whole stack — arm selection, exact candidate
/// threshold, argmax tie-breaks, ticket accounting — against silent drift;
/// by the differential campaign profile the same trace is what every
/// engine configuration produces.
TEST(ShardedGoldenTraceTest, PinnedHybridCampaign) {
  static const char* const kGolden[] = {
      "N 0 0 0",   "N 1 2 1",   "R 0 0 0",   "N 2 1 2",   "R 2 1 2",
      "N 3 0 3",   "R 1 2 1",   "N 4 2 4",   "R 4 2 4",   "N 5 1 5",
      "R 3 0 3",   "N 3 1 6",   "R 3 1 6",   "N 5 2 7",   "R 5 1 5",
      "N 2 2 8",   "R 2 2 8",   "N 2 0 9",   "R 2 0 9",   "N 3 2 10",
      "R 5 2 7",   "N 1 0 11",  "R 3 2 10",  "N 4 0 12",  "R 1 0 11",
      "N 1 1 13",  "R 4 0 12",  "N 4 1 14",  "R 1 1 13",  "N 5 0 15",
      "R 4 1 14",  "N 0 1 16",  "R 0 1 16",  "N 0 2 17",  "R 0 2 17",
      "R 5 0 15",  "B 0 0",     "B 1 2",     "B 2 1",     "B 3 2",
      "B 4 2",     "B 5 2",
  };
  auto engine = MakeSelector(MakeOptions(SchedulerKind::kHybrid, 2, 1));
  ASSERT_TRUE(engine.ok());
  MultiTenantSelector* selector = engine->get();
  constexpr int kTenants = 6;
  constexpr int kModels = 3;
  for (int t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(
        selector->AddTenantWithDefaultPrior(kModels, Costs(t, kModels)).ok());
  }
  Rng rng(2026);
  std::vector<Assignment> outstanding;
  std::vector<std::string> trace;
  while (true) {
    while (selector->HasDispatchableWork()) {
      auto a = selector->Next();
      ASSERT_TRUE(a.ok());
      trace.push_back("N " + std::to_string(a->tenant) + " " +
                      std::to_string(a->model) + " " + std::to_string(a->id));
      outstanding.push_back(*a);
    }
    if (outstanding.empty()) break;
    const int pick =
        rng.UniformInt(0, static_cast<int>(outstanding.size()) - 1);
    const Assignment a = outstanding[pick];
    outstanding.erase(outstanding.begin() + pick);
    ASSERT_TRUE(selector->Report(a, Accuracy(a.tenant, a.model)).ok());
    trace.push_back("R " + std::to_string(a.tenant) + " " +
                    std::to_string(a.model) + " " + std::to_string(a.id));
  }
  for (int t = 0; t < kTenants; ++t) {
    trace.push_back("B " + std::to_string(t) + " " +
                    std::to_string(selector->BestModel(t).value_or(-1)));
  }
  ASSERT_EQ(trace.size(), sizeof(kGolden) / sizeof(kGolden[0]));
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], kGolden[i]) << "golden-trace drift at event " << i;
  }
}

}  // namespace
}  // namespace easeml::shard
