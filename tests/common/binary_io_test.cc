// CRC-32 and the fixed-width codec against bytewise oracles: the table
// loop and the bulk vector copies must produce exactly the checksums and
// bytes the one-byte-at-a-time definitions produce, so every WAL frame and
// checkpoint written before them still validates and decodes.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "gtest/gtest.h"

namespace easeml {
namespace {

/// The oracle: CRC-32 (reflected IEEE polynomial 0xEDB88320) one bit at a
/// time, straight from the definition.
uint32_t BitwiseCrc32(std::string_view data, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const unsigned char byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::string SeededBytes(size_t n, uint64_t seed) {
  std::string s(n, '\0');
  uint64_t x = seed;
  for (char& c : s) c = static_cast<char>(SplitMix64(x++) >> 56);
  return s;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32, MatchesTheBitwiseOracleAtEveryShortLengthAndAlignment) {
  const std::string bytes = SeededBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view span(bytes.data() + offset, len);
      EXPECT_EQ(Crc32(span), BitwiseCrc32(span))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesTheBitwiseOracleOnAMebibyte) {
  const std::string bytes = SeededBytes(size_t{1} << 20, 2);
  EXPECT_EQ(Crc32(bytes), BitwiseCrc32(bytes));
}

TEST(Crc32, ChainsLikeOneChecksumOverTheConcatenation) {
  const std::string bytes = SeededBytes(1000, 3);
  const std::string_view all = bytes;
  for (const size_t cut : {0, 1, 7, 8, 9, 500, 993, 1000}) {
    const std::string_view a = all.substr(0, cut);
    const std::string_view b = all.substr(cut);
    EXPECT_EQ(Crc32(b, Crc32(a)), Crc32(all)) << "cut " << cut;
    EXPECT_EQ(Crc32(b, Crc32(a)), BitwiseCrc32(b, BitwiseCrc32(a)))
        << "cut " << cut;
  }
}

TEST(Crc32, MaskRoundTrips) {
  for (const uint32_t crc : {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc32(MaskCrc32(crc)), crc);
  }
}

const std::vector<double>& SpecialDoubles() {
  static const std::vector<double> v = {
      0.0,
      -0.0,
      1.0,
      -0.125,
      3.141592653589793,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max()};
  return v;
}

TEST(VectorCodec, DoubleVecEmitsThePerElementBytes) {
  for (const size_t n : {0, 1, 10, 179}) {
    const std::vector<double>& special = SpecialDoubles();
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(i < special.size() ? special[i] : static_cast<double>(i) / 7);
    }
    std::string oracle;
    PutU32(&oracle, static_cast<uint32_t>(n));
    for (const double x : v) PutDouble(&oracle, x);
    std::string bulk = "prefix";
    PutDoubleVec(&bulk, v);
    EXPECT_EQ(bulk, "prefix" + oracle) << n;

    std::string_view in = oracle;
    std::vector<double> round = {42.0};
    ASSERT_TRUE(GetDoubleVec(&in, &round).ok());
    EXPECT_TRUE(in.empty());
    ASSERT_EQ(round.size(), n);
    EXPECT_TRUE(n == 0 ||
                std::memcmp(round.data(), v.data(), n * sizeof(double)) == 0);
  }
}

TEST(VectorCodec, I32VecEmitsThePerElementBytes) {
  const std::vector<int> v = {0, 1, -1, 179, std::numeric_limits<int>::min(),
                              std::numeric_limits<int>::max(), 0x01020304};
  std::string oracle;
  PutU32(&oracle, static_cast<uint32_t>(v.size()));
  for (const int x : v) PutI32(&oracle, x);
  std::string bulk;
  PutI32Vec(&bulk, v);
  EXPECT_EQ(bulk, oracle);

  std::string empty;
  PutI32Vec(&empty, {});
  EXPECT_EQ(empty, std::string(4, '\0'));

  std::string_view in = oracle;
  std::vector<int> round;
  ASSERT_TRUE(GetI32Vec(&in, &round).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(round, v);
}

TEST(VectorCodec, BoolVecEmitsOneByteEach) {
  std::vector<bool> v(37);
  for (size_t i = 0; i < v.size(); ++i) v[i] = (i * 7) % 3 == 0;
  std::string oracle;
  PutU32(&oracle, static_cast<uint32_t>(v.size()));
  for (const bool b : v) PutU8(&oracle, b ? 1 : 0);
  std::string bulk = "x";
  PutBoolVec(&bulk, v);
  EXPECT_EQ(bulk, "x" + oracle);

  std::string_view in = oracle;
  std::vector<bool> round(3, true);
  ASSERT_TRUE(GetBoolVec(&in, &round).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(round, v);
}

TEST(VectorCodec, BoolVecRejectsAByteAboveOne) {
  for (const size_t bad_at : {0, 4, 9}) {
    std::string bytes;
    PutBoolVec(&bytes, std::vector<bool>(10, true));
    bytes[4 + bad_at] = 2;
    std::string_view in = bytes;
    std::vector<bool> v;
    const Status st = GetBoolVec(&in, &v);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << bad_at;
  }
}

TEST(VectorCodec, ShortReadsAreDataLoss) {
  std::string doubles;
  PutDoubleVec(&doubles, {1.0, 2.0, 3.0});
  std::string ints;
  PutI32Vec(&ints, {1, 2, 3});
  std::string bools;
  PutBoolVec(&bools, {true, false, true});
  // Every strict prefix, including one cut inside the length prefix.
  for (size_t len = 0; len < doubles.size(); ++len) {
    std::string_view in(doubles.data(), len);
    std::vector<double> v;
    EXPECT_EQ(GetDoubleVec(&in, &v).code(), StatusCode::kDataLoss) << len;
  }
  for (size_t len = 0; len < ints.size(); ++len) {
    std::string_view in(ints.data(), len);
    std::vector<int> v;
    EXPECT_EQ(GetI32Vec(&in, &v).code(), StatusCode::kDataLoss) << len;
  }
  for (size_t len = 0; len < bools.size(); ++len) {
    std::string_view in(bools.data(), len);
    std::vector<bool> v;
    EXPECT_EQ(GetBoolVec(&in, &v).code(), StatusCode::kDataLoss) << len;
  }
  // A length prefix far beyond the buffer must not be trusted.
  std::string huge;
  PutU32(&huge, 0xFFFFFFFFu);
  std::string_view in = huge;
  std::vector<double> v;
  EXPECT_EQ(GetDoubleVec(&in, &v).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace easeml
