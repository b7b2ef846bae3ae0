// Speed gate for the GEMM: at the 512^3 block shape of the matmul
// workload, the dispatched blocked::Multiply must beat the portable
// C++ micro-kernel by at least 1.3x. Both are timed in the same run on
// the same operands, so the ratio holds across hosts. Timing is noisy
// under sanitizers and on loaded machines, so it skips unless
// TASKBENCH_STRESS=1 (the labeled CI step sets it; locally use
// `TASKBENCH_STRESS=1 ctest -L stress`).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "data/kernels.h"

namespace taskbench::data {
namespace {

/// Fastest of `reps` timed calls of `multiply(a, b)`, in seconds.
template <typename Fn>
double BestSeconds(Fn multiply, const Matrix& a, const Matrix& b, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    auto c = multiply(a, b);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(c.ok());
    best = std::min(best, took.count());
  }
  return best;
}

TEST(KernelsStressTest, DispatchedGemmIsOnePointThreeTimesPortable) {
  if (std::getenv("TASKBENCH_STRESS") == nullptr) {
    GTEST_SKIP() << "set TASKBENCH_STRESS=1 to run the GEMM speed gate";
  }
  const internal::GemmIsa isa = internal::DispatchedGemmIsa();
  if (isa == internal::GemmIsa::kPortable) {
    GTEST_SKIP() << "this CPU has no SIMD GEMM path";
  }
  constexpr int64_t kDim = 512;
  Matrix a(kDim, kDim);
  Matrix b(kDim, kDim);
  Rng rng(11);
  FillUniform(&a, &rng);
  FillUniform(&b, &rng);
  const auto portable = [](const Matrix& x, const Matrix& y) {
    return internal::MultiplyWith(internal::GemmIsa::kPortable, x, y);
  };
  double fast_s = 1e30, slow_s = 1e30;
  // Interleaved rounds, best of each, so a burst of host noise cannot
  // land on only one side.
  for (int round = 0; round < 3; ++round) {
    fast_s = std::min(fast_s, BestSeconds(blocked::Multiply, a, b, 3));
    slow_s = std::min(slow_s, BestSeconds(portable, a, b, 1));
  }
  const double ratio = slow_s / fast_s;
  const double gflop = 2.0 * kDim * kDim * kDim / 1e9;
  RecordProperty("speedup", std::to_string(ratio));
  RecordProperty("gflops", std::to_string(gflop / fast_s));
  EXPECT_GE(ratio, 1.3) << internal::GemmIsaName(isa) << " path "
                        << gflop / fast_s << " GFLOP/s vs portable "
                        << gflop / slow_s << " GFLOP/s at 512^3";
}

}  // namespace
}  // namespace taskbench::data
