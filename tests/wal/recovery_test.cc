// OpenOrRecover end to end: fresh start, clean-shutdown replay, torn-tail
// repair, the lost-ticket/duplicate-report taxonomy after a crash,
// checkpoint-based restart, and the fail-stop poisoning of an engine whose
// log went away. WAL on/off trace parity for every policy and WAL tier is
// the differential harness's (tests/differential/).

#include "wal/recovery.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/durable_state.h"
#include "core/multi_tenant_selector.h"
#include "gtest/gtest.h"
#include "shard/sharded_selector.h"
#include "wal/checkpoint.h"
#include "wal/fault_injection.h"
#include "wal/record.h"
#include "wal/selector_wal.h"
#include "wal_test_util.h"

namespace easeml::wal {
namespace {

using core::MultiTenantSelector;
using core::SelectorOptions;

// Encoded engine state with the log position masked out, so a recovered
// engine (whose position is the recovered log end) compares equal to the
// pre-crash engine (whose position was the live end) when and only when
// the USER-VISIBLE state matches.
std::string StateFingerprint(const MultiTenantSelector& s) {
  auto state = s.CaptureDurableState();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  if (!state.ok()) return "<capture failed>";
  state->wal_epoch = 0;
  state->wal_offset = 0;
  std::string bytes;
  EncodeDurableSelectorState(&bytes, *state);
  return bytes;
}

Status DriveReported(MultiTenantSelector& s, int steps, Rng& rng) {
  for (int i = 0; i < steps && !s.Exhausted(); ++i) {
    auto assignment = s.Next();
    if (!assignment.ok()) return assignment.status();
    EASEML_RETURN_NOT_OK(s.Report(*assignment, rng.Uniform(0.0, 1.0)));
  }
  return Status::OK();
}

Status AddTwoTenants(MultiTenantSelector& s) {
  EASEML_RETURN_NOT_OK(
      s.AddTenant(MakeTestPrior(3), {1.0, 2.0, 3.0}).status());
  EASEML_RETURN_NOT_OK(
      s.AddTenant(MakeTestPrior(4, 0.3), {1.0, 1.0, 2.0, 2.0}).status());
  return Status::OK();
}

TEST(OpenOrRecover, FreshDirectoryStartsEmpty) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  ASSERT_NE(r.wal, nullptr);
  ASSERT_NE(r.selector, nullptr);
  EXPECT_EQ(r.selector->num_tenants(), 0);
  EXPECT_FALSE(r.stats.used_checkpoint);
  EXPECT_EQ(r.stats.replayed_records, 0);
  EXPECT_EQ(r.stats.truncated_bytes, 0);
  EXPECT_EQ(r.stats.last_epoch, 0);
  // The returned engine is live and logging.
  WAL_ASSERT_OK(AddTwoTenants(*r.selector));
  WAL_ASSERT_OK_AND_ASSIGN(const std::string log, fs.ReadFile(LogPath("/d")));
  EXPECT_GT(log.size(), 0u);
}

TEST(OpenOrRecover, RefusesOptionsWithAWalAlreadyWired) {
  FaultInjectingFileSystem fs;
  auto wal = SelectorWal::CreateSuspended(&fs, LogPath("/x"), {});
  SelectorOptions options;
  options.wal = wal.get();
  EXPECT_EQ(OpenOrRecover(&fs, "/d", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(OpenOrRecover, ReplaysACleanShutdownExactly) {
  FaultInjectingFileSystem fs;
  std::string fingerprint;
  {
    WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                             OpenOrRecover(&fs, "/d", SelectorOptions{}));
    WAL_ASSERT_OK(AddTwoTenants(*r.selector));
    Rng rng(3);
    WAL_ASSERT_OK(DriveReported(*r.selector, 25, rng));
    fingerprint = StateFingerprint(*r.selector);
  }  // process exits; unsynced buffered bytes (if any) are lost with it

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  EXPECT_FALSE(r.stats.used_checkpoint);
  EXPECT_GT(r.stats.replayed_records, 0);
  EXPECT_EQ(r.stats.truncated_bytes, 0);
  EXPECT_EQ(r.selector->num_tenants(), 2);
  EXPECT_EQ(StateFingerprint(*r.selector), fingerprint);
  WAL_ASSERT_OK(r.selector->ValidateIndex());

  // History continues where it stopped: a fresh tenant (the originals are
  // exhausted by now) appends with the next epoch and keeps replaying.
  WAL_ASSERT_OK(
      r.selector->AddTenant(MakeTestPrior(3), {1.0, 1.0, 1.0}).status());
  Rng rng(4);
  WAL_ASSERT_OK(DriveReported(*r.selector, 3, rng));
}

TEST(OpenOrRecover, TruncatesATornTailAndReports) {
  FaultInjectingFileSystem fs;
  std::string fingerprint;
  {
    WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                             OpenOrRecover(&fs, "/d", SelectorOptions{}));
    WAL_ASSERT_OK(AddTwoTenants(*r.selector));
    Rng rng(5);
    WAL_ASSERT_OK(DriveReported(*r.selector, 10, rng));
    fingerprint = StateFingerprint(*r.selector);
  }
  // A torn append: garbage bytes reached the medium past the last synced
  // record before the power went out.
  {
    WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WritableFile> f,
                             fs.OpenAppendable(LogPath("/d")));
    WAL_ASSERT_OK(f->Append(std::string(13, '\xee')));
    WAL_ASSERT_OK(f->Sync());
  }

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  EXPECT_EQ(r.stats.truncated_bytes, 13);
  EXPECT_FALSE(r.stats.truncate_reason.empty());
  EXPECT_EQ(StateFingerprint(*r.selector), fingerprint);
  // The repair is durable: the file itself was truncated back to the
  // valid prefix.
  WAL_ASSERT_OK_AND_ASSIGN(const std::string log, fs.ReadFile(LogPath("/d")));
  EXPECT_EQ(static_cast<int64_t>(log.size()), r.stats.log_bytes);
}

// Satellite: the crash taxonomy clients see. A ticket issued before the
// crash whose NEXT record never became durable is gone — reporting it
// answers NotFound (never issued), NOT FailedPrecondition (duplicate).
TEST(OpenOrRecover, LostTicketAnswersNotFoundAfterRecovery) {
  FaultInjectingFileSystem fs;
  MultiTenantSelector::Assignment lost;
  {
    WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                             OpenOrRecover(&fs, "/d", SelectorOptions{}));
    WAL_ASSERT_OK(AddTwoTenants(*r.selector));
    Rng rng(6);
    WAL_ASSERT_OK(DriveReported(*r.selector, 6, rng));
    // Next appends WITHOUT syncing: the ticket promise is not durable.
    WAL_ASSERT_OK_AND_ASSIGN(lost, r.selector->Next());
  }
  fs.CrashDropPending();

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  EXPECT_EQ(r.selector->InFlightAssignment(lost.id).status().code(),
            StatusCode::kNotFound);
  const Status report = r.selector->Report(lost, 0.75);
  EXPECT_EQ(report.code(), StatusCode::kNotFound) << report.ToString();
  // And the failed report changed nothing: the ticket counter re-issues
  // the same id, whose report now succeeds.
  WAL_ASSERT_OK_AND_ASSIGN(const MultiTenantSelector::Assignment reissued,
                           r.selector->Next());
  EXPECT_EQ(reissued.id, lost.id);
  WAL_ASSERT_OK(r.selector->Report(reissued, 0.5));
}

// Satellite: a Report that WAS acknowledged is durable, and a client retry
// of the same ticket after recovery is the duplicate case.
TEST(OpenOrRecover, ReplayedDuplicateReportIsIdempotent) {
  FaultInjectingFileSystem fs;
  MultiTenantSelector::Assignment acked;
  {
    WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                             OpenOrRecover(&fs, "/d", SelectorOptions{}));
    WAL_ASSERT_OK(AddTwoTenants(*r.selector));
    Rng rng(8);
    WAL_ASSERT_OK(DriveReported(*r.selector, 6, rng));
    WAL_ASSERT_OK_AND_ASSIGN(acked, r.selector->Next());
    WAL_ASSERT_OK(r.selector->Report(acked, 0.9));  // synced before ack
  }
  fs.CrashDropPending();

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  const std::string before = StateFingerprint(*r.selector);
  const Status dup = r.selector->Report(acked, 0.9);
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition) << dup.ToString();
  // Idempotent: the duplicate left the recovered state untouched.
  EXPECT_EQ(StateFingerprint(*r.selector), before);
}

TEST(OpenOrRecover, CheckpointRestartMatchesFullReplay) {
  FaultInjectingFileSystem fs;
  std::string fingerprint;
  {
    WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                             OpenOrRecover(&fs, "/d", SelectorOptions{}));
    WAL_ASSERT_OK(AddTwoTenants(*r.selector));
    Rng rng(13);
    WAL_ASSERT_OK(DriveReported(*r.selector, 20, rng));
    WAL_ASSERT_OK(
        CutCheckpoint(&fs, "/d", r.wal.get(), *r.selector, nullptr));
    // Post-checkpoint history: a new tenant (with a new prior shape, so a
    // REGISTER_PRIOR lands after the cut too) plus its campaign.
    WAL_ASSERT_OK(r.selector
                      ->AddTenant(MakeTestPrior(5, 0.4),
                                  {1.0, 1.0, 1.0, 2.0, 2.0})
                      .status());
    WAL_ASSERT_OK(DriveReported(*r.selector, 15, rng));
    fingerprint = StateFingerprint(*r.selector);
  }
  fs.CrashDropPending();

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  EXPECT_TRUE(r.stats.used_checkpoint);
  EXPECT_GT(r.stats.checkpoint_epoch, 0);
  // Replay covered only the post-checkpoint suffix (15 Next/Report pairs),
  // not the 20 pairs plus registrations the checkpoint absorbed.
  EXPECT_GT(r.stats.replayed_records, 0);
  EXPECT_LE(r.stats.replayed_records, 30);
  EXPECT_EQ(StateFingerprint(*r.selector), fingerprint);
  WAL_ASSERT_OK(r.selector->ValidateIndex());
}

TEST(OpenOrRecover, CorruptCheckpointFallsBackToFullReplay) {
  FaultInjectingFileSystem fs;
  std::string fingerprint;
  {
    WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                             OpenOrRecover(&fs, "/d", SelectorOptions{}));
    WAL_ASSERT_OK(AddTwoTenants(*r.selector));
    Rng rng(14);
    WAL_ASSERT_OK(DriveReported(*r.selector, 12, rng));
    WAL_ASSERT_OK(
        CutCheckpoint(&fs, "/d", r.wal.get(), *r.selector, nullptr));
    WAL_ASSERT_OK(DriveReported(*r.selector, 8, rng));
    fingerprint = StateFingerprint(*r.selector);
  }
  WAL_ASSERT_OK(fs.FlipDurableBit(CheckpointPath("/d"), 40, 3));

  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  EXPECT_FALSE(r.stats.used_checkpoint);
  EXPECT_EQ(StateFingerprint(*r.selector), fingerprint);
}

TEST(OpenOrRecover, EpochGapRefusesReplay) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK(fs.CreateDir("/d"));
  std::string log;
  RemoveTenantBody rm;
  rm.tenant = 0;
  std::string body;
  EncodeRemoveTenant(&body, rm);
  AppendRecord(&log, RecordType::kRemoveTenant, 1, body);
  AppendRecord(&log, RecordType::kRemoveTenant, 3, body);  // epoch 2 missing
  {
    WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<WritableFile> f,
                             fs.OpenAppendable(LogPath("/d")));
    WAL_ASSERT_OK(f->Append(log));
    WAL_ASSERT_OK(f->Sync());
  }
  const Status st = OpenOrRecover(&fs, "/d", SelectorOptions{}).status();
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
}

TEST(OpenOrRecover, DeferredModeLosesAtMostTheUnflushedTail) {
  // Group-commit durability: acks return from the process buffer, the
  // file only sees whole buffer flushes at the threshold. A process kill
  // loses the buffered tail; what WAS flushed ends on a record boundary,
  // so recovery replays a clean prefix with no tear to truncate.
  FaultInjectingFileSystem fs;
  SelectorOptions options;
  SelectorWalOptions wal_options;
  wal_options.durability = SelectorWalOptions::Durability::kDeferred;
  wal_options.flush_threshold = 128;  // a couple of records per flush
  int64_t live_epoch = 0;
  {
    WAL_ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<SelectorWal> wal,
        SelectorWal::Open(&fs, LogPath("/d"), wal_options));
    SelectorOptions wired = options;
    wired.wal = wal.get();
    WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<MultiTenantSelector> selector,
                             shard::MakeSelector(wired));
    WAL_ASSERT_OK(AddTwoTenants(*selector));
    Rng rng(11);
    WAL_ASSERT_OK(DriveReported(*selector, 6, rng));
    live_epoch = wal->position().epoch;
    // Destructors drop the in-process buffer: a kill. The page cache
    // (visible bytes) survives a process crash, so no CrashDropPending.
  }
  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", options));
  // Flushes cover whole records, so nothing is torn...
  EXPECT_EQ(r.stats.truncated_bytes, 0);
  // ...the flushed prefix is there...
  EXPECT_GT(r.stats.replayed_records, 0);
  // ...and only the tail behind the last threshold crossing is gone.
  EXPECT_LT(r.stats.last_epoch, live_epoch);
  WAL_EXPECT_OK(r.selector->ValidateIndex());
}

TEST(OpenOrRecover, CheckpointSyncsHardInDeferredMode) {
  // CutCheckpoint must not trust kDeferred's no-op Sync: every byte the
  // checkpoint references gets flushed AND fsynced before it publishes,
  // so the checkpoint survives even a power loss that eats the page
  // cache.
  FaultInjectingFileSystem fs;
  SelectorOptions options;
  SelectorWalOptions wal_options;
  wal_options.durability = SelectorWalOptions::Durability::kDeferred;
  std::string live_fingerprint;
  {
    WAL_ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<SelectorWal> wal,
        SelectorWal::Open(&fs, LogPath("/d"), wal_options));
    SelectorOptions wired = options;
    wired.wal = wal.get();
    WAL_ASSERT_OK_AND_ASSIGN(std::unique_ptr<MultiTenantSelector> selector,
                             shard::MakeSelector(wired));
    WAL_ASSERT_OK(AddTwoTenants(*selector));
    Rng rng(12);
    WAL_ASSERT_OK(DriveReported(*selector, 5, rng));
    WAL_ASSERT_OK(CutCheckpoint(&fs, "/d", wal.get(), *selector, nullptr));
    live_fingerprint = StateFingerprint(*selector);
  }
  fs.CrashDropPending();  // power loss: unsynced bytes are gone
  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", options));
  EXPECT_TRUE(r.stats.used_checkpoint);
  EXPECT_EQ(r.stats.replayed_records, 0);
  EXPECT_EQ(StateFingerprint(*r.selector), live_fingerprint);
}

TEST(OpenOrRecover, WalFailurePoisonsTheEngineFailStop) {
  FaultInjectingFileSystem fs;
  WAL_ASSERT_OK_AND_ASSIGN(RecoveredSelector r,
                           OpenOrRecover(&fs, "/d", SelectorOptions{}));
  WAL_ASSERT_OK(AddTwoTenants(*r.selector));
  Rng rng(15);
  WAL_ASSERT_OK(DriveReported(*r.selector, 4, rng));

  fs.ArmFailAfterOps(0);  // the very next filesystem op fails
  WAL_ASSERT_OK_AND_ASSIGN(const MultiTenantSelector::Assignment a,
                           r.selector->Next());  // buffered, no fs op yet
  const Status report = r.selector->Report(a, 0.5);  // sync hits the fault
  EXPECT_EQ(report.code(), StatusCode::kUnavailable) << report.ToString();

  // Fail-stop: even after the medium "heals", the engine refuses to run
  // ahead of its log.
  fs.ClearFaults();
  const Status next = r.selector->Next().status();
  EXPECT_EQ(next.code(), StatusCode::kFailedPrecondition) << next.ToString();
  const Status add =
      r.selector->AddTenant(MakeTestPrior(3), {1.0, 1.0, 1.0}).status();
  EXPECT_EQ(add.code(), StatusCode::kFailedPrecondition) << add.ToString();
}

}  // namespace
}  // namespace easeml::wal
