// Checkpoint encode/decode bit-exactness, the atomic publish protocol
// (tmp + sync + rename survives a crash at any point), and CutCheckpoint
// on a live WAL-attached engine (seal to a block boundary, embed the log
// position, carry the prior registry and obs metadata).

#include "wal/checkpoint.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/durable_state.h"
#include "core/multi_tenant_selector.h"
#include "gtest/gtest.h"
#include "obs/fleet_observer.h"
#include "wal/fault_injection.h"
#include "wal/record.h"
#include "wal/selector_wal.h"
#include "wal_test_util.h"

namespace easeml::wal {
namespace {

using core::MultiTenantSelector;
using core::SelectorOptions;

Status Drive(MultiTenantSelector& s, int steps, Rng& rng) {
  for (int i = 0; i < steps && !s.Exhausted(); ++i) {
    auto assignment = s.Next();
    if (!assignment.ok()) return assignment.status();
    EASEML_RETURN_NOT_OK(s.Report(*assignment, rng.Uniform(0.0, 1.0)));
  }
  return Status::OK();
}

Result<MultiTenantSelector> SmallCampaignEngine(const SelectorOptions& options,
                                                int steps) {
  EASEML_ASSIGN_OR_RETURN(MultiTenantSelector s,
                          MultiTenantSelector::Create(options));
  EASEML_RETURN_NOT_OK(
      s.AddTenant(MakeTestPrior(3), {1.0, 2.0, 3.0}).status());
  EASEML_RETURN_NOT_OK(
      s.AddTenant(MakeTestPrior(4, 0.3), {1.0, 1.0, 2.0, 2.0}).status());
  Rng rng(41);
  EASEML_RETURN_NOT_OK(Drive(s, steps, rng));
  return s;
}

TEST(CheckpointState, EncodeDecodeRoundTripsBitExactly) {
  SelectorOptions options;
  WAL_ASSERT_OK_AND_ASSIGN(MultiTenantSelector s,
                           SmallCampaignEngine(options, 12));
  WAL_ASSERT_OK_AND_ASSIGN(const core::DurableSelectorState state,
                           s.CaptureDurableState());

  std::string bytes;
  EncodeDurableSelectorState(&bytes, state);
  std::string_view cursor = bytes;
  core::DurableSelectorState decoded;
  WAL_ASSERT_OK(DecodeDurableSelectorState(&cursor, &decoded));
  EXPECT_TRUE(cursor.empty());

  std::string bytes2;
  EncodeDurableSelectorState(&bytes2, decoded);
  EXPECT_EQ(bytes, bytes2);
}

TEST(CheckpointState, RestoredEngineCapturesIdenticalBytes) {
  SelectorOptions options;
  WAL_ASSERT_OK_AND_ASSIGN(MultiTenantSelector s,
                           SmallCampaignEngine(options, 12));
  WAL_ASSERT_OK_AND_ASSIGN(const core::DurableSelectorState state,
                           s.CaptureDurableState());

  WAL_ASSERT_OK_AND_ASSIGN(MultiTenantSelector fresh,
                           MultiTenantSelector::Create(options));
  WAL_ASSERT_OK(fresh.RestoreDurableState(state));
  WAL_ASSERT_OK_AND_ASSIGN(const core::DurableSelectorState state2,
                           fresh.CaptureDurableState());

  std::string a, b;
  EncodeDurableSelectorState(&a, state);
  EncodeDurableSelectorState(&b, state2);
  EXPECT_EQ(a, b);
}

Checkpoint SampleCheckpoint() {
  SelectorOptions options;
  auto engine = SmallCampaignEngine(options, 8);
  EASEML_CHECK(engine.ok()) << engine.status().ToString();
  auto state = engine->CaptureDurableState();
  EASEML_CHECK(state.ok()) << state.status().ToString();
  Checkpoint cp;
  cp.state = std::move(state).value();
  core::DurablePrior prior;
  prior.num_arms = 2;
  prior.noise_variance = 0.25;
  prior.mean = {0.5, -0.5};
  prior.gram = {1.0, 0.5, 0.5, 1.0};
  cp.wal_priors.push_back(std::move(prior));
  cp.has_obs = true;
  cp.obs.fleet_epoch = 17;
  cp.obs.totals.tenants = 2;
  cp.obs.totals.rounds = 8;
  return cp;
}

TEST(CheckpointFile, EncodeDecodeRoundTrips) {
  const Checkpoint cp = SampleCheckpoint();
  const std::string bytes = EncodeCheckpoint(cp);
  WAL_ASSERT_OK_AND_ASSIGN(const Checkpoint round, DecodeCheckpoint(bytes));
  EXPECT_EQ(EncodeCheckpoint(round), bytes);
  ASSERT_EQ(round.wal_priors.size(), 1u);
  EXPECT_EQ(round.wal_priors[0].gram, cp.wal_priors[0].gram);
  EXPECT_TRUE(round.has_obs);
  EXPECT_EQ(round.obs.fleet_epoch, 17u);
  EXPECT_EQ(round.obs.totals.rounds, 8);
}

TEST(CheckpointFile, DecodeRejectsDamage) {
  const std::string bytes = EncodeCheckpoint(SampleCheckpoint());

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeCheckpoint(bad_magic).status().code(),
            StatusCode::kDataLoss);

  std::string bad_body = bytes;
  bad_body[bytes.size() - 3] ^= 0x10;
  EXPECT_EQ(DecodeCheckpoint(bad_body).status().code(), StatusCode::kDataLoss);

  EXPECT_EQ(DecodeCheckpoint(std::string_view(bytes).substr(0, 10))
                .status()
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(
      DecodeCheckpoint(std::string_view(bytes).substr(0, bytes.size() - 1))
          .status()
          .code(),
      StatusCode::kDataLoss);
}

TEST(CheckpointFile, ReadAbsentIsNulloptNotError) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK(fs.CreateDir("/d"));
  WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> cp,
                           ReadCheckpoint(&fs, "/d"));
  EXPECT_FALSE(cp.has_value());
}

TEST(CheckpointFile, ReadCorruptFallsBackToNullopt) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK(fs.CreateDir("/d"));
  WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WritableFile> f,
                           fs.OpenAppendable(CheckpointPath("/d")));
  WAL_ASSERT_OK(f->Append("not a checkpoint at all"));
  WAL_ASSERT_OK(f->Sync());
  WAL_ASSERT_OK(f->Close());
  // Corrupt checkpoint -> recovery falls back to full log replay, so the
  // read reports "no checkpoint" rather than an error.
  WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> cp,
                           ReadCheckpoint(&fs, "/d"));
  EXPECT_FALSE(cp.has_value());
}

TEST(CheckpointFile, WriteReadRoundTripsThroughTheFilesystem) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK(fs.CreateDir("/d"));
  const Checkpoint cp = SampleCheckpoint();
  WAL_ASSERT_OK(WriteCheckpoint(&fs, "/d", cp));
  WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> round,
                           ReadCheckpoint(&fs, "/d"));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(EncodeCheckpoint(*round), EncodeCheckpoint(cp));
  // The tmp staging file must not linger after the atomic rename.
  WAL_ASSERT_OK_AND_ASSIGN(const bool tmp_exists,
                           fs.Exists(CheckpointPath("/d") + ".tmp"));
  EXPECT_FALSE(tmp_exists);
}

TEST(CheckpointFile, CrashedRewriteKeepsThePreviousCheckpoint) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK(fs.CreateDir("/d"));
  Checkpoint first = SampleCheckpoint();
  first.obs.fleet_epoch = 1;
  WAL_ASSERT_OK(WriteCheckpoint(&fs, "/d", first));

  Checkpoint second = SampleCheckpoint();
  second.obs.fleet_epoch = 2;
  // WriteCheckpoint charges exactly two ops (one append, one sync); fail
  // each in turn and prove the previous checkpoint survives, even across
  // a power loss.
  for (int64_t crash_after : {0, 1}) {
    fs.ArmFailAfterOps(crash_after);
    EXPECT_FALSE(WriteCheckpoint(&fs, "/d", second).ok());
    fs.ClearFaults();
    fs.CrashDropPending();
    WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> read,
                             ReadCheckpoint(&fs, "/d"));
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->obs.fleet_epoch, 1u);
  }

  // And with faults cleared, the rewrite goes through and replaces it.
  WAL_ASSERT_OK(WriteCheckpoint(&fs, "/d", second));
  WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> read,
                           ReadCheckpoint(&fs, "/d"));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->obs.fleet_epoch, 2u);
}

TEST(CutCheckpoint, SealsLogAndEmbedsPositionAndPriors) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK(fs.CreateDir("/d"));
  WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<SelectorWal> wal,
                           SelectorWal::Open(&fs, LogPath("/d"), {}));

  SelectorOptions options;
  options.wal = wal.get();
  WAL_ASSERT_OK_AND_ASSIGN(MultiTenantSelector s,
                           MultiTenantSelector::Create(options));
  WAL_ASSERT_OK(s.AddTenant(MakeTestPrior(3), {1.0, 2.0, 3.0}).status());
  WAL_ASSERT_OK(
      s.AddTenant(MakeTestPrior(4, 0.3), {1.0, 1.0, 2.0, 2.0}).status());
  Rng rng(7);
  WAL_ASSERT_OK(Drive(s, 10, rng));

  WAL_ASSERT_OK(CutCheckpoint(&fs, "/d", wal.get(), s, nullptr));

  WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> cp,
                           ReadCheckpoint(&fs, "/d"));
  ASSERT_TRUE(cp.has_value());
  EXPECT_FALSE(cp->has_obs);
  EXPECT_EQ(cp->wal_priors.size(), 2u);
  EXPECT_EQ(cp->state.tenants.size(), 2u);

  // The embedded position is the sealed (block-aligned) log end, and every
  // byte it references is already durable.
  EXPECT_GT(cp->state.wal_offset, 0);
  EXPECT_EQ(cp->state.wal_offset % static_cast<int64_t>(kWalBlockSize), 0);
  WAL_ASSERT_OK_AND_ASSIGN(const std::string log, fs.ReadFile(LogPath("/d")));
  EXPECT_EQ(static_cast<int64_t>(log.size()), cp->state.wal_offset);
  EXPECT_EQ(fs.PendingBytes(LogPath("/d")).value(), 0u);
}

TEST(CutCheckpoint, CarriesObsMetadataFromThePlane) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK(fs.CreateDir("/d"));
  WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<SelectorWal> wal,
                           SelectorWal::Open(&fs, LogPath("/d"), {}));

  SelectorOptions options;
  options.wal = wal.get();
  obs::FleetObserverOptions obs_options;
  obs_options.publish_interval = 1;
  WAL_ASSERT_OK_AND_ASSIGN(obs::ObservedSelector observed,
                           obs::MakeObservedSelector(options, obs_options));
  WAL_ASSERT_OK(observed.selector->AddTenant(MakeTestPrior(3), {1.0, 2.0, 3.0})
                    .status());
  Rng rng(9);
  WAL_ASSERT_OK(Drive(*observed.selector, 6, rng));

  WAL_ASSERT_OK(CutCheckpoint(&fs, "/d", wal.get(), *observed.selector,
                              &observed.observer->plane()));

  WAL_ASSERT_OK_AND_ASSIGN(const std::optional<Checkpoint> cp,
                           ReadCheckpoint(&fs, "/d"));
  ASSERT_TRUE(cp.has_value());
  EXPECT_TRUE(cp->has_obs);
  EXPECT_GT(cp->obs.fleet_epoch, 0u);
  // Published blocks lag the engine; the totals must never be AHEAD of it.
  EXPECT_LE(cp->obs.totals.tenants, 1);
  EXPECT_LE(cp->obs.totals.rounds, 6);
}

}  // namespace
}  // namespace easeml::wal
