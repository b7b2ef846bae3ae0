// Speed gate for the block checksum: on one 512x512 block, the CRC-32
// that Serializer::Crc32 dispatches to must beat a byte-at-a-time table
// CRC-32 by at least 4x. Both are timed in the same run on the same
// buffer, so the ratio holds across hosts. Timing is noisy under
// sanitizers and on loaded machines, so it skips unless
// TASKBENCH_STRESS=1 (the labeled CI step sets it; locally use
// `TASKBENCH_STRESS=1 ctest -L stress`).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/serializer.h"

namespace taskbench::storage {
namespace {

/// One table lookup per byte: the CRC-32 loop the serializer used
/// before the fold and slice-by-16 paths.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

/// Fastest of `reps` timed calls, in seconds; `*crc` gets the value.
template <typename Fn>
double BestSeconds(Fn fn, const std::vector<uint8_t>& bytes, int reps,
                   uint32_t* crc) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    *crc = fn(bytes.data(), bytes.size());
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, took.count());
  }
  return best;
}

TEST(SerializerStressTest, DispatchedCrc32IsFourTimesBytewise) {
  if (std::getenv("TASKBENCH_STRESS") == nullptr) {
    GTEST_SKIP() << "set TASKBENCH_STRESS=1 to run the CRC-32 speed gate";
  }
  std::vector<uint8_t> bytes(2u << 20);
  Rng rng(3);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());

  uint32_t fast_crc = 0, slow_crc = 0;
  double fast_s = 1e30, slow_s = 1e30;
  // Interleaved rounds, best of each, so a burst of host noise cannot
  // land on only one side.
  for (int round = 0; round < 5; ++round) {
    fast_s = std::min(fast_s,
                      BestSeconds(Serializer::Crc32, bytes, 3, &fast_crc));
    slow_s = std::min(slow_s, BestSeconds(BytewiseCrc32, bytes, 1, &slow_crc));
  }
  ASSERT_EQ(fast_crc, slow_crc);
  const double ratio = slow_s / fast_s;
  RecordProperty("speedup", std::to_string(ratio));
  EXPECT_GE(ratio, 4.0) << "dispatched CRC-32 " << fast_s * 1e3
                        << " ms vs bytewise " << slow_s * 1e3
                        << " ms on 2 MiB (clmul "
                        << (internal::Crc32ClmulSupported() ? "on" : "off")
                        << ")";
}

}  // namespace
}  // namespace taskbench::storage
