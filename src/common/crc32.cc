#include "common/crc32.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define SWIFT_CRC32_X86 1
#endif

namespace swift {

namespace {

// Reflected CRC-32C (Castagnoli) polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

// Slice-by-8 tables: table[j][b] advances the CRC by byte b seen j
// positions before the current one, so eight bytes fold in parallel.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int j = 1; j < 8; ++j) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kTables = MakeTables();

uint32_t CrcSoftware(const unsigned char* p, std::size_t n, uint32_t c) {
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) {
    c = kTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

// GF(2) arithmetic modulo the reflected polynomial, for the shift
// constants below: bit 31 is x^0, bit 0 is x^31. `a` must be nonzero
// (every caller passes a power of x).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t m = 1u << 31;
  uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

// x^(8 * bytes) modulo the polynomial: multiplying a CRC by it appends
// `bytes` zero bytes to the message it covers.
constexpr uint32_t XPow8N(std::size_t bytes) {
  uint32_t result = 1u << 31;  // x^0
  uint32_t sq = 1u << 23;      // x^8
  for (; bytes != 0; bytes >>= 1) {
    if (bytes & 1u) result = MultModP(sq, result);
    sq = MultModP(sq, sq);
  }
  return result;
}

// Byte-sliced tables for "append `bytes` zero bytes": table[k][b] is
// (b << 8k) times x^(8 * bytes), so a shift is four lookups.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(std::size_t bytes) {
  ShiftTable t{};
  const uint32_t k = XPow8N(bytes);
  for (uint32_t b = 0; b < 256; ++b) {
    for (int j = 0; j < 4; ++j) {
      t[j][b] = MultModP(k, b << (8 * j));
    }
  }
  return t;
}

inline uint32_t Shift(const ShiftTable& t, uint32_t crc) {
  return t[0][crc & 0xFFu] ^ t[1][(crc >> 8) & 0xFFu] ^
         t[2][(crc >> 16) & 0xFFu] ^ t[3][crc >> 24];
}

#ifdef SWIFT_CRC32_X86
#if defined(__x86_64__)
// Block lengths of the three interleaved streams. crc32q has a
// three-cycle latency and a one-cycle throughput, so three independent
// chains keep the unit busy; the stream CRCs are then combined by
// shifting each over the bytes that follow it.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;
constexpr ShiftTable kLongShift = MakeShiftTable(kLongBlock);
constexpr ShiftTable kShortShift = MakeShiftTable(kShortBlock);

__attribute__((target("sse4.2"))) inline uint64_t Load64(
    const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Runs three crc32q streams over consecutive `block`-byte blocks while
// at least three remain, then folds them into `c`.
__attribute__((target("sse4.2"))) inline uint32_t CrcStreams3(
    const unsigned char*& p, std::size_t& n, uint32_t c, std::size_t block,
    const ShiftTable& shift) {
  while (n >= 3 * block) {
    uint64_t c0 = c;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    const unsigned char* const end = p + block;
    while (p < end) {
      c0 = _mm_crc32_u64(c0, Load64(p));
      c1 = _mm_crc32_u64(c1, Load64(p + block));
      c2 = _mm_crc32_u64(c2, Load64(p + 2 * block));
      p += 8;
    }
    // Stream k started from 0, not from the CRC of what precedes it:
    // CRC is linear, so shifting the earlier streams over the later
    // blocks and adding them makes up the difference.
    c = Shift(shift, static_cast<uint32_t>(c0)) ^ static_cast<uint32_t>(c1);
    c = Shift(shift, c) ^ static_cast<uint32_t>(c2);
    p += 2 * block;
    n -= 3 * block;
  }
  return c;
}
#endif  // __x86_64__

__attribute__((target("sse4.2"))) uint32_t CrcHardware(const unsigned char* p,
                                                       std::size_t n,
                                                       uint32_t c) {
#if defined(__x86_64__)
  c = CrcStreams3(p, n, c, kLongBlock, kLongShift);
  c = CrcStreams3(p, n, c, kShortBlock, kShortShift);
  uint64_t c64 = c;
  while (n >= 8) {
    c64 = _mm_crc32_u64(c64, Load64(p));
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(c64);
#else
  while (n >= 4) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    c = _mm_crc32_u32(c, v);
    p += 4;
    n -= 4;
  }
#endif
  while (n--) {
    c = _mm_crc32_u8(c, *p++);
  }
  return c;
}
#endif  // SWIFT_CRC32_X86

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef SWIFT_CRC32_X86
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2");
  if (kHasSse42) {
    return CrcHardware(p, data.size(), c) ^ 0xFFFFFFFFu;
  }
#endif
  return CrcSoftware(p, data.size(), c) ^ 0xFFFFFFFFu;
}

}  // namespace swift
