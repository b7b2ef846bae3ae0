// CRC-32 behind Serializer::Crc32: the reflected IEEE 802.3 polynomial
// (0xEDB88320), initial value and final xor 0xFFFFFFFF. Two paths
// compute the same function:
//   - a carry-less-multiply fold (PCLMULQDQ, after Gopal et al., "Fast
//     CRC Computation for Generic Polynomials Using PCLMULQDQ
//     Instruction", Intel 2009) for x86 CPUs that have it;
//   - slice-by-16 over compile-time tables everywhere else, and for
//     inputs under 64 bytes and the fold's sub-16-byte tail.
// The path is chosen once per process from the CPU's feature bits.

#include <array>
#include <cstddef>
#include <cstdint>

#include "storage/serializer.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define TASKBENCH_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace taskbench::storage {

namespace {

constexpr uint32_t kReflectedPoly = 0xedb88320u;

/// kTables[k][b] is the CRC state change caused by byte `b` followed by
/// `k` zero bytes, so 16 lookups advance the state over 16 bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables BuildTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kReflectedPoly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kTables = BuildTables();

/// Advances the pre-inverted CRC state `crc` over `size` bytes.
uint32_t SliceBy16(uint32_t crc, const uint8_t* p, size_t size) {
  const auto& t = kTables;
  for (; size >= 16; p += 16, size -= 16) {
    const uint32_t a = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                              uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    crc = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^
          t[13][(a >> 16) & 0xffu] ^ t[12][a >> 24] ^ t[11][p[4]] ^
          t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^ t[6][p[9]] ^
          t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^ t[2][p[13]] ^
          t[1][p[14]] ^ t[0][p[15]];
  }
  for (; size > 0; ++p, --size) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc;
}

#ifdef TASKBENCH_CRC32_CLMUL

/// x * k: x's low half times k's low constant xor x's high half times
/// k's high constant, which moves x 128 (or 512) bits further on.
__attribute__((target("pclmul"))) __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

__m128i Load(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Advances the pre-inverted CRC state over `size` bytes; `size` must
/// be at least 64 and a multiple of 16. Four 128-bit accumulators fold
/// 64 bytes per step, then fold into one, then 128 -> 64 bits, then a
/// Barrett reduction yields the 32-bit state. The constants are
/// x^n mod P for the fold distances, P itself and floor(x^64 / P), all
/// bit-reflected (the same ones zlib's and Linux's PCLMUL CRC-32 use).
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldClmul(
    uint32_t crc, const uint8_t* p, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load(p + 16);
  __m128i x3 = Load(p + 32);
  __m128i x4 = Load(p + 48);
  for (p += 64, size -= 64; size >= 64; p += 64, size -= 64) {
    x1 = _mm_xor_si128(Fold(x1, k1k2), Load(p));
    x2 = _mm_xor_si128(Fold(x2, k1k2), Load(p + 16));
    x3 = _mm_xor_si128(Fold(x3, k1k2), Load(p + 32));
    x4 = _mm_xor_si128(Fold(x4, k1k2), Load(p + 48));
  }
  x1 = _mm_xor_si128(Fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(Fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(Fold(x1, k3k4), x4);
  for (; size >= 16; p += 16, size -= 16) {
    x1 = _mm_xor_si128(Fold(x1, k3k4), Load(p));
  }

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif  // TASKBENCH_CRC32_CLMUL

}  // namespace

namespace internal {

uint32_t Crc32Portable(const uint8_t* data, size_t size) {
  return SliceBy16(0xffffffffu, data, size) ^ 0xffffffffu;
}

#ifdef TASKBENCH_CRC32_CLMUL

bool Crc32ClmulSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

uint32_t Crc32Clmul(const uint8_t* data, size_t size) {
  uint32_t crc = 0xffffffffu;
  if (size >= 64) {
    const size_t folded = size & ~size_t{15};
    crc = FoldClmul(crc, data, folded);
    data += folded;
    size -= folded;
  }
  return SliceBy16(crc, data, size) ^ 0xffffffffu;
}

#else

bool Crc32ClmulSupported() { return false; }

uint32_t Crc32Clmul(const uint8_t* data, size_t size) {
  return Crc32Portable(data, size);
}

#endif  // TASKBENCH_CRC32_CLMUL

}  // namespace internal

uint32_t Serializer::Crc32(const uint8_t* data, size_t size) {
  static uint32_t (*const crc32)(const uint8_t*, size_t) =
      internal::Crc32ClmulSupported() ? internal::Crc32Clmul
                                      : internal::Crc32Portable;
  return crc32(data, size);
}

}  // namespace taskbench::storage
