// Retired tenants as O(1) tombstones in the version-2 checkpoint: a
// departed tenant costs a constant few bytes however many arms it had, its
// read-side history survives a checkpoint restart, and a checkpoint in the
// retired version-1 layout is refused in favour of a full log replay that
// reproduces the same state.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/durable_state.h"
#include "core/multi_tenant_selector.h"
#include "gtest/gtest.h"
#include "wal/checkpoint.h"
#include "wal/fault_injection.h"
#include "wal/record.h"
#include "wal/recovery.h"
#include "wal_test_util.h"

namespace easeml::wal {
namespace {

using core::MultiTenantSelector;
using core::SelectorOptions;

/// Deterministic accuracy in (0.05, 0.95) per (tenant, model).
double Accuracy(int tenant, int model) {
  const uint64_t x =
      SplitMix64(static_cast<uint64_t>(tenant) * 1000003u +
                 static_cast<uint64_t>(model));
  return 0.05 + 0.9 * (static_cast<double>(x >> 11) * 0x1.0p-53);
}

std::vector<double> Costs(int num_models) {
  std::vector<double> costs;
  for (int m = 0; m < num_models; ++m) costs.push_back(1.0 + 0.01 * (m % 7));
  return costs;
}

std::string Encoded(const core::DurableSelectorState& state) {
  std::string bytes;
  EncodeDurableSelectorState(&bytes, state);
  return bytes;
}

/// Serves one decision at a time and replaces each tenant with a fresh one
/// once it has been served `rounds` times, until `departures` tenants have
/// left.
Status Churn(MultiTenantSelector& s,
             const std::shared_ptr<const gp::SharedGpPrior>& prior,
             int departures, int rounds) {
  const std::vector<double> costs = Costs(prior->num_arms());
  for (int retired = 0; retired < departures;) {
    EASEML_ASSIGN_OR_RETURN(const MultiTenantSelector::Assignment a, s.Next());
    EASEML_RETURN_NOT_OK(s.Report(a, Accuracy(a.tenant, a.model)));
    EASEML_ASSIGN_OR_RETURN(const int served, s.RoundsServed(a.tenant));
    if (served < rounds) continue;
    EASEML_RETURN_NOT_OK(s.RemoveTenant(a.tenant));
    EASEML_RETURN_NOT_OK(s.AddTenant(prior, costs).status());
    ++retired;
  }
  return Status::OK();
}

TEST(Tombstone, RetiredTenantsCostAConstantFewBytesAtK179) {
  constexpr int kModels = 179;
  constexpr int kLive = 121;
  constexpr int kDepartures = 1000;
  const auto prior = MakeTestPrior(kModels, 0.5);
  WAL_ASSERT_OK_AND_ASSIGN(MultiTenantSelector s,
                           MultiTenantSelector::Create(SelectorOptions{}));
  for (int t = 0; t < kLive; ++t) {
    WAL_ASSERT_OK(s.AddTenant(prior, Costs(kModels)).status());
  }
  WAL_ASSERT_OK(Churn(s, prior, kDepartures, 2));
  ASSERT_EQ(s.num_tenants(), kLive + kDepartures);

  WAL_ASSERT_OK_AND_ASSIGN(const core::DurableSelectorState state,
                           s.CaptureDurableState());
  // The same state with the departed tenants cut out: what is left of the
  // encoding is the live fleet, so the difference is the tombstones alone.
  core::DurableSelectorState live_only = state;
  live_only.tenants.clear();
  live_only.best_model.clear();
  int retired = 0;
  for (size_t i = 0; i < state.tenants.size(); ++i) {
    const core::DurableTenant& t = state.tenants[i];
    if (t.user.retired) {
      ++retired;
      EXPECT_EQ(t.user.rounds_served, 2);
      EXPECT_EQ(t.user.num_models, kModels);
      EXPECT_TRUE(t.user.costs.empty());
      continue;
    }
    live_only.tenants.push_back(t);
    live_only.best_model.push_back(state.best_model[i]);
  }
  ASSERT_EQ(retired, kDepartures);
  const size_t all_bytes = Encoded(state).size();
  const size_t live_bytes = Encoded(live_only).size();
  EXPECT_LE(all_bytes - live_bytes, 64u * kDepartures)
      << "per retired tenant: "
      << static_cast<double>(all_bytes - live_bytes) / kDepartures << " B";
}

TEST(Tombstone, RetiredUserStateKeepsOnlyItsHistory) {
  const auto prior = MakeTestPrior(5, 0.5);
  WAL_ASSERT_OK_AND_ASSIGN(MultiTenantSelector s,
                           MultiTenantSelector::Create(SelectorOptions{}));
  WAL_ASSERT_OK(s.AddTenant(prior, Costs(5)).status());
  WAL_ASSERT_OK(s.AddTenant(prior, Costs(5)).status());
  WAL_ASSERT_OK(Churn(s, prior, 1, 2));
  WAL_ASSERT_OK_AND_ASSIGN(const core::DurableSelectorState state,
                           s.CaptureDurableState());
  ASSERT_EQ(state.tenants.size(), 3u);
  int retired = -1;
  for (size_t i = 0; i < state.tenants.size(); ++i) {
    if (state.tenants[i].user.retired) retired = static_cast<int>(i);
  }
  ASSERT_GE(retired, 0);
  const scheduler::DurableUserState& u = state.tenants[retired].user;
  EXPECT_EQ(u.num_models, 5);
  EXPECT_EQ(u.rounds_served, 2);
  EXPECT_GT(u.best_reward, 0.0);
  EXPECT_GT(u.consumed_cost, 0.0);
  // Every other field is back at its default: nothing O(K) is kept.
  const scheduler::DurableUserState fresh;
  EXPECT_TRUE(u.costs.empty() && u.played.empty() && u.in_flight.empty() &&
              u.in_flight_ucb.empty());
  EXPECT_EQ(u.num_played, fresh.num_played);
  EXPECT_EQ(u.num_in_flight, fresh.num_in_flight);
  EXPECT_EQ(u.max_in_flight, fresh.max_in_flight);
  EXPECT_EQ(u.last_reward, fresh.last_reward);
  EXPECT_EQ(u.empirical_bound, fresh.empirical_bound);
  EXPECT_EQ(u.min_empirical_ucb, fresh.min_empirical_ucb);
  EXPECT_EQ(state.tenants[retired].belief.prior_id, -1);
  // Queries on a tombstone stay well defined.
  WAL_ASSERT_OK_AND_ASSIGN(const int rounds, s.RoundsServed(retired));
  EXPECT_EQ(rounds, 2);
  WAL_ASSERT_OK_AND_ASSIGN(const double best, s.BestAccuracy(retired));
  EXPECT_EQ(best, u.best_reward);
}

/// BestModel, BestAccuracy (as its exact bits) and RoundsServed of one
/// tenant, or the status each query answered with.
std::string Queries(const MultiTenantSelector& s, int tenant) {
  const Result<int> model = s.BestModel(tenant);
  const Result<double> accuracy = s.BestAccuracy(tenant);
  const Result<int> rounds = s.RoundsServed(tenant);
  std::string out;
  out += model.ok() ? std::to_string(*model) : model.status().ToString();
  out += " ";
  if (accuracy.ok()) {
    std::string bits;
    PutDouble(&bits, *accuracy);
    for (const unsigned char c : bits) out += std::to_string(c) + ".";
  } else {
    out += accuracy.status().ToString();
  }
  out += " ";
  out += rounds.ok() ? std::to_string(*rounds) : rounds.status().ToString();
  return out;
}

/// A WAL-attached campaign in "/d" with departures on both sides of one
/// checkpoint cut. Returns the engine's capture bytes at the kill.
std::string CampaignWithCheckpoint(FaultInjectingFileSystem* fs,
                                   std::vector<std::string>* queries) {
  auto r = OpenOrRecover(fs, "/d", SelectorOptions{});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  MultiTenantSelector& s = *r->selector;
  const auto prior = MakeTestPrior(6, 0.4);
  for (int t = 0; t < 4; ++t) {
    EXPECT_TRUE(s.AddTenant(prior, Costs(6)).ok());
  }
  WAL_EXPECT_OK(Churn(s, prior, 5, 2));
  WAL_EXPECT_OK(CutCheckpoint(fs, "/d", r->wal.get(), s, nullptr));
  WAL_EXPECT_OK(Churn(s, prior, 3, 3));
  queries->clear();
  for (int t = 0; t < s.num_tenants(); ++t) {
    queries->push_back(Queries(s, t));
  }
  auto state = s.CaptureDurableState();
  EXPECT_TRUE(state.ok());
  return state.ok() ? Encoded(*state) : "";
}

TEST(Tombstone, RetiredQueriesSurviveACheckpointRestart) {
  FaultInjectingFileSystem fs;
  std::vector<std::string> before;
  const std::string bytes = CampaignWithCheckpoint(&fs, &before);
  ASSERT_FALSE(bytes.empty());

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  EXPECT_TRUE(r.stats.used_checkpoint);
  ASSERT_EQ(r.selector->num_tenants(), static_cast<int>(before.size()));
  WAL_ASSERT_OK_AND_ASSIGN(const core::DurableSelectorState state,
                           r.selector->CaptureDurableState());
  EXPECT_EQ(Encoded(state), bytes);
  int retired = 0;
  for (int t = 0; t < r.selector->num_tenants(); ++t) {
    EXPECT_EQ(Queries(*r.selector, t), before[t]) << "tenant " << t;
    if (!state.tenants[t].user.retired) continue;
    ++retired;
    EXPECT_GE(state.best_model[t], 0) << t;
  }
  EXPECT_EQ(retired, 8);
}

// The version-1 checkpoint layout: every tenant with all its per-arm
// vectors and a belief block, and every WAL prior written in full. Kept
// only to build a file the current reader must refuse.
void EncodeVersionOneUser(std::string* out,
                          const scheduler::DurableUserState& u) {
  PutI32(out, u.user_id);
  PutDoubleVec(out, u.costs);
  PutBoolVec(out, u.played);
  PutI32(out, u.num_played);
  PutI32(out, u.rounds_served);
  PutBoolVec(out, u.in_flight);
  PutDoubleVec(out, u.in_flight_ucb);
  PutI32(out, u.num_in_flight);
  PutI32(out, u.max_in_flight);
  PutU8(out, u.retired ? 1 : 0);
  PutDouble(out, u.best_reward);
  PutDouble(out, u.last_reward);
  PutDouble(out, u.empirical_bound);
  PutDouble(out, u.min_empirical_ucb);
  PutDouble(out, u.consumed_cost);
}

std::string EncodeVersionOneCheckpoint(const Checkpoint& cp) {
  const core::DurableSelectorState& s = cp.state;
  std::string body;
  PutU32(&body, static_cast<uint32_t>(s.priors.size()));
  for (const core::DurablePrior& p : s.priors) EncodeDurablePrior(&body, p);
  PutU32(&body, static_cast<uint32_t>(s.tenants.size()));
  for (const core::DurableTenant& t : s.tenants) {
    EncodeVersionOneUser(&body, t.user);
    PutI32(&body, t.belief.prior_id);
    PutI32Vec(&body, t.belief.arms);
    PutDoubleVec(&body, t.belief.rewards);
    PutDoubleVec(&body, t.belief.chol);
  }
  PutI32Vec(&body, s.best_model);
  PutU32(&body, static_cast<uint32_t>(s.in_flight.size()));
  for (const core::DurableSelectorState::Ticket& t : s.in_flight) {
    PutI64(&body, t.id);
    PutI32(&body, t.tenant);
    PutI32(&body, t.model);
  }
  PutI64(&body, s.next_ticket);
  PutI32(&body, s.round);
  PutString(&body, s.scheduler_state);
  PutI64(&body, s.wal_epoch);
  PutI64(&body, s.wal_offset);
  PutU32(&body, static_cast<uint32_t>(cp.wal_priors.size()));
  for (const core::DurablePrior& p : cp.wal_priors) {
    EncodeDurablePrior(&body, p);
  }
  PutU8(&body, 0);  // no obs metadata
  std::string out = "EZCKPT01";
  PutU32(&out, 1);
  PutU32(&out, MaskCrc32(Crc32(body)));
  PutU32(&out, static_cast<uint32_t>(body.size()));
  return out + body;
}

TEST(Tombstone, VersionOneCheckpointFallsBackToAFullReplay) {
  FaultInjectingFileSystem fs;
  std::vector<std::string> queries;
  const std::string bytes = CampaignWithCheckpoint(&fs, &queries);
  ASSERT_FALSE(bytes.empty());

  WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> cp,
                           ReadCheckpoint(&fs, "/d"));
  ASSERT_TRUE(cp.has_value());
  const std::string v1 = EncodeVersionOneCheckpoint(*cp);
  EXPECT_EQ(DecodeCheckpoint(v1).status().code(), StatusCode::kDataLoss);
  {
    const std::string path = CheckpointPath("/d");
    WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WritableFile> file,
                             fs.OpenAppendable(path));
    WAL_ASSERT_OK(fs.Truncate(path, 0));
    WAL_ASSERT_OK(file->Append(v1));
    WAL_ASSERT_OK(file->Sync());
    WAL_ASSERT_OK(file->Close());
  }
  WAL_ASSERT_OK_AND_ASSIGN(const std::string on_disk,
                           fs.ReadFile(CheckpointPath("/d")));
  ASSERT_EQ(on_disk, v1);

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  EXPECT_FALSE(r.stats.used_checkpoint);
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan,
                           ScanLog(fs.ReadFile(LogPath("/d")).value(), 0, 0));
  int64_t records = 0;
  for (const Record& record : scan.records) {
    if (record.type != RecordType::kPad) ++records;
  }
  EXPECT_EQ(r.stats.replayed_records, records);
  WAL_ASSERT_OK_AND_ASSIGN(const core::DurableSelectorState state,
                           r.selector->CaptureDurableState());
  EXPECT_EQ(Encoded(state), bytes);
}

}  // namespace
}  // namespace easeml::wal
