#include "common/crc32.h"

#include <array>
#include <cstring>

namespace easeml {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "Crc32's slicing loop reads words little-endian");

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
/// generated at first use. Row 0 is the classic bytewise table; row s maps
/// a byte to its CRC contribution when s more zero bytes follow it, so one
/// step folds eight input bytes with eight independent lookups.
const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t s = 1; s < t.size(); ++s) {
      for (size_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

uint32_t LoadLe32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr uint32_t kMaskDelta = 0xa282ead8u;

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const Crc32Tables& t = Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t MaskCrc32(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

uint32_t UnmaskCrc32(uint32_t masked) {
  const uint32_t rot = masked - kMaskDelta;
  return (rot << 15) | (rot >> 17);
}

}  // namespace easeml
