// WAL record framing: alignment arithmetic, roundtrip, and the damage
// taxonomy — tail damage (short/garbled/CRC-failed) truncates, while a
// CRC-valid record with a skipped epoch is a hole and must refuse replay.

#include "wal/record.h"

#include <string>

#include "gtest/gtest.h"
#include "wal_test_util.h"

namespace easeml::wal {
namespace {

TEST(FramedSize, AlwaysAlignedAndMinimal) {
  for (uint64_t body = 0; body < 64; ++body) {
    const uint64_t framed = FramedSize(body);
    EXPECT_EQ(framed % kRecordAlignment, 0u) << body;
    EXPECT_GE(framed, kRecordHeaderSize + 1 + 8 + body) << body;
    EXPECT_LT(framed, kRecordHeaderSize + 1 + 8 + body + kRecordAlignment)
        << body;
  }
  EXPECT_EQ(FramedSize(0), kMinRecordSize);
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

// Frozen frames: the framing, the vector codec inside the bodies and the
// masked CRC in the header must keep producing these exact bytes, or logs
// written by earlier builds stop validating.
TEST(AppendRecord, FramesArePinnedByteForByte) {
  std::string add_log;
  AddTenantBody add;
  add.tenant = 5;
  add.prior_id = 0;
  add.costs = {0.25, 0.5, 1.0};
  std::string add_body;
  EncodeAddTenant(&add_body, add);
  AppendRecord(&add_log, RecordType::kAddTenant, 3, add_body);
  EXPECT_EQ(Hex(add_log),
            "9540d1df2d00000002030000000000000005000000000000000300000000000000"
            "0000d03f000000000000e03f000000000000f03f000000");

  std::string prior_log;
  RegisterPriorBody reg;
  reg.prior_id = 1;
  reg.prior.num_arms = 2;
  reg.prior.noise_variance = 1e-3;
  reg.prior.mean = {0.5, -0.25};
  reg.prior.gram = {1.0, 0.125, 0.125, 2.0};
  std::string prior_body;
  EncodeRegisterPrior(&prior_body, reg);
  AppendRecord(&prior_log, RecordType::kRegisterPrior, 4, prior_body);
  EXPECT_EQ(Hex(prior_log),
            "d01efb9f510000000104000000000000000100000002000000fca9f1d24d62503f"
            "02000000000000000000e03f000000000000d0bf04000000000000000000f03f00"
            "0000000000c03f000000000000c03f000000000000004000000000000000");
}

TEST(ScanLog, EmptyLogIsCleanAndEmpty) {
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog("", 0, 0));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0);
  EXPECT_EQ(scan.last_epoch, 0);
  EXPECT_FALSE(scan.truncated);
}

TEST(ScanLog, RoundTripsRecordsInOrder) {
  std::string log;
  ReportBody report;
  report.ticket = 7;
  report.tenant = 1;
  report.model = 2;
  report.accuracy = 0.875;
  std::string body;
  EncodeReport(&body, report);
  AppendRecord(&log, RecordType::kReport, 1, body);

  NextBody next;
  next.tenant = 3;
  next.model = 0;
  next.ticket = 8;
  std::string next_body;
  EncodeNext(&next_body, next);
  AppendRecord(&log, RecordType::kNext, 2, next_body);

  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog(log, 0, 0));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, static_cast<int64_t>(log.size()));
  EXPECT_EQ(scan.last_epoch, 2);

  EXPECT_EQ(scan.records[0].type, RecordType::kReport);
  EXPECT_EQ(scan.records[0].epoch, 1);
  EXPECT_EQ(scan.records[0].offset, 0);
  ReportBody round;
  WAL_ASSERT_OK(DecodeReport(scan.records[0].body, &round));
  EXPECT_EQ(round.ticket, 7);
  EXPECT_EQ(round.tenant, 1);
  EXPECT_EQ(round.model, 2);
  EXPECT_EQ(round.accuracy, 0.875);

  EXPECT_EQ(scan.records[1].type, RecordType::kNext);
  EXPECT_EQ(scan.records[1].epoch, 2);
  EXPECT_EQ(scan.records[1].offset,
            static_cast<int64_t>(FramedSize(body.size())));
}

std::string TwoRecordLog(std::string* first_body_out = nullptr) {
  std::string log;
  RemoveTenantBody rm;
  rm.tenant = 4;
  std::string body;
  EncodeRemoveTenant(&body, rm);
  AppendRecord(&log, RecordType::kRemoveTenant, 1, body);
  if (first_body_out != nullptr) *first_body_out = body;
  CancelBody cancel;
  cancel.ticket = 9;
  cancel.tenant = 4;
  cancel.model = 1;
  std::string cancel_body;
  EncodeCancel(&cancel_body, cancel);
  AppendRecord(&log, RecordType::kCancel, 2, cancel_body);
  return log;
}

TEST(ScanLog, ShortTailTruncates) {
  std::string body;
  const std::string log = TwoRecordLog(&body);
  const int64_t first = static_cast<int64_t>(FramedSize(body.size()));
  // Keep the first record plus a sliver of the second: torn tail.
  const std::string torn = log.substr(0, first + 5);
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog(torn, 0, 0));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, first);
  EXPECT_EQ(scan.last_epoch, 1);
  EXPECT_NE(scan.truncate_reason.find("short remainder"), std::string::npos)
      << scan.truncate_reason;
}

TEST(ScanLog, CorruptTailCrcTruncates) {
  std::string body;
  std::string log = TwoRecordLog(&body);
  // Flip one bit inside the LAST record's CRC-covered payload (its epoch
  // field — the frame's trailing alignment padding is NOT covered):
  // CRC mismatch, truncate.
  log[FramedSize(body.size()) + 12] ^= 0x40;
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog(log, 0, 0));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, static_cast<int64_t>(FramedSize(body.size())));
  EXPECT_NE(scan.truncate_reason.find("CRC"), std::string::npos)
      << scan.truncate_reason;
}

TEST(ScanLog, ImplausibleLengthTruncates) {
  std::string body;
  std::string log = TwoRecordLog(&body);
  const size_t second = FramedSize(body.size());
  // Overwrite the second record's length field with garbage much larger
  // than the remainder.
  log[second + 4] = '\xff';
  log[second + 5] = '\xff';
  log[second + 6] = '\xff';
  log[second + 7] = '\x7f';
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog(log, 0, 0));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.truncated);
  EXPECT_NE(scan.truncate_reason.find("implausible"), std::string::npos)
      << scan.truncate_reason;
}

TEST(ScanLog, EpochGapIsDataLossNotTruncation) {
  std::string log;
  RemoveTenantBody rm;
  rm.tenant = 1;
  std::string body;
  EncodeRemoveTenant(&body, rm);
  AppendRecord(&log, RecordType::kRemoveTenant, 1, body);
  // Valid CRC, but epoch 3 after epoch 1: a record is MISSING in between.
  AppendRecord(&log, RecordType::kRemoveTenant, 3, body);
  const Result<LogScan> scan = ScanLog(log, 0, 0);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(scan.status().message().find("epoch gap"), std::string::npos);
}

TEST(ScanLog, PadRecordsCarryNoEpoch) {
  std::string log;
  RemoveTenantBody rm;
  rm.tenant = 1;
  std::string body;
  EncodeRemoveTenant(&body, rm);
  AppendRecord(&log, RecordType::kRemoveTenant, 1, body);
  AppendRecord(&log, RecordType::kPad, 0, std::string(31, '\0'));
  AppendRecord(&log, RecordType::kRemoveTenant, 2, body);
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog(log, 0, 0));
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[1].type, RecordType::kPad);
  EXPECT_EQ(scan.last_epoch, 2);
  EXPECT_FALSE(scan.truncated);
}

TEST(ScanLog, PadWithNonzeroEpochTruncates) {
  std::string log;
  AppendRecord(&log, RecordType::kPad, 5, std::string(8, '\0'));
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog(log, 0, 0));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, 0);
}

TEST(ScanLog, BadStartOffsetIsDataLoss) {
  std::string log;
  RemoveTenantBody rm;
  rm.tenant = 1;
  std::string body;
  EncodeRemoveTenant(&body, rm);
  AppendRecord(&log, RecordType::kRemoveTenant, 1, body);
  EXPECT_EQ(ScanLog(log, 4, 0).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ScanLog(log, static_cast<int64_t>(log.size()) + 8, 0)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(ScanLog, ResumesMidLogFromAlignedOffsetAndEpoch) {
  std::string body;
  const std::string log = TwoRecordLog(&body);
  const int64_t first = static_cast<int64_t>(FramedSize(body.size()));
  WAL_ASSERT_OK_AND_ASSIGN(const LogScan scan, ScanLog(log, first, 1));
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].type, RecordType::kCancel);
  EXPECT_EQ(scan.last_epoch, 2);
}

}  // namespace
}  // namespace easeml::wal
