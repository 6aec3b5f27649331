#ifndef EASEML_COMMON_BINARY_IO_H_
#define EASEML_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace easeml {

/// Little-endian fixed-width binary encoding, used by the write-ahead log
/// and checkpoint formats. Doubles are stored as their IEEE-754 bit
/// patterns (memcpy through uint64_t), so a round trip is BIT-exact — the
/// property the recovery battery's bit-for-bit engine comparison rests on.
///
/// Writers append to a std::string; readers consume the front of a
/// std::string_view in place and fail with DataLoss on underflow (a short
/// read inside a CRC-valid record means the format, not the medium, is
/// wrong).

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(buf, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

inline void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline Status GetU8(std::string_view* in, uint8_t* v) {
  if (in->size() < 1) return Status::DataLoss("binary_io: short read (u8)");
  *v = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  return Status::OK();
}

inline Status GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return Status::DataLoss("binary_io: short read (u32)");
  const unsigned char* p = reinterpret_cast<const unsigned char*>(in->data());
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  in->remove_prefix(4);
  return Status::OK();
}

inline Status GetU64(std::string_view* in, uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  EASEML_RETURN_NOT_OK(GetU32(in, &lo));
  EASEML_RETURN_NOT_OK(GetU32(in, &hi));
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return Status::OK();
}

inline Status GetI64(std::string_view* in, int64_t* v) {
  uint64_t u = 0;
  EASEML_RETURN_NOT_OK(GetU64(in, &u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

inline Status GetI32(std::string_view* in, int32_t* v) {
  uint32_t u = 0;
  EASEML_RETURN_NOT_OK(GetU32(in, &u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

inline Status GetDouble(std::string_view* in, double* v) {
  uint64_t bits = 0;
  EASEML_RETURN_NOT_OK(GetU64(in, &bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

/// Length-prefixed byte string (u32 length + raw bytes).
inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

inline Status GetString(std::string_view* in, std::string* s) {
  uint32_t len = 0;
  EASEML_RETURN_NOT_OK(GetU32(in, &len));
  if (in->size() < len) {
    return Status::DataLoss("binary_io: short read (string body)");
  }
  s->assign(in->data(), len);
  in->remove_prefix(len);
  return Status::OK();
}

/// Length-prefixed homogeneous vectors. The host is little-endian (checked
/// below), so a double or int32 vector's in-memory bytes ARE its encoding:
/// each one is a single bulk copy, byte-identical to encoding its elements
/// one by one with PutDouble/PutI32.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "binary_io's bulk vector codec assumes a little-endian host");
static_assert(sizeof(double) == 8 && sizeof(int) == 4,
              "binary_io's bulk vector codec assumes 8-byte doubles and "
              "4-byte ints");

inline void PutDoubleVec(std::string* out, const std::vector<double>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * 8);
}

inline Status GetDoubleVec(std::string_view* in, std::vector<double>* v) {
  uint32_t n = 0;
  EASEML_RETURN_NOT_OK(GetU32(in, &n));
  const size_t bytes = static_cast<size_t>(n) * 8;
  if (in->size() < bytes) {
    return Status::DataLoss("binary_io: short read (double vector)");
  }
  v->resize(n);
  if (n > 0) std::memcpy(v->data(), in->data(), bytes);
  in->remove_prefix(bytes);
  return Status::OK();
}

inline void PutI32Vec(std::string* out, const std::vector<int>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * 4);
}

inline Status GetI32Vec(std::string_view* in, std::vector<int>* v) {
  uint32_t n = 0;
  EASEML_RETURN_NOT_OK(GetU32(in, &n));
  const size_t bytes = static_cast<size_t>(n) * 4;
  if (in->size() < bytes) {
    return Status::DataLoss("binary_io: short read (int vector)");
  }
  v->resize(n);
  if (n > 0) std::memcpy(v->data(), in->data(), bytes);
  in->remove_prefix(bytes);
  return Status::OK();
}

/// std::vector<bool> as one byte per bit (simple and size-irrelevant at
/// checkpoint granularity). Bit-packed storage has no byte image, so the
/// span is filled and checked in one pass each way.
inline void PutBoolVec(std::string* out, const std::vector<bool>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  const size_t at = out->size();
  out->resize(at + v.size());
  char* p = out->data() + at;
  for (const bool b : v) *p++ = b ? 1 : 0;
}

inline Status GetBoolVec(std::string_view* in, std::vector<bool>* v) {
  uint32_t n = 0;
  EASEML_RETURN_NOT_OK(GetU32(in, &n));
  if (in->size() < n) {
    return Status::DataLoss("binary_io: short read (bool vector)");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(in->data());
  for (uint32_t i = 0; i < n; ++i) {
    if (p[i] > 1) return Status::DataLoss("binary_io: bool byte out of range");
  }
  v->resize(n);
  for (uint32_t i = 0; i < n; ++i) (*v)[i] = p[i] != 0;
  in->remove_prefix(n);
  return Status::OK();
}

}  // namespace easeml

#endif  // EASEML_COMMON_BINARY_IO_H_
