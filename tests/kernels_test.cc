#include "data/kernels.h"

#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/matrix.h"

namespace taskbench::data {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
  return m;
}

struct MatmulShape {
  int64_t m, k, n;
};

// Shapes chosen to hit every edge of the packed-panel GEMM: smaller
// than one register tile, exact MR/NR/KC multiples, ragged i/j/k
// edges, single rows/columns, and a k panel boundary (KC = 256).
const std::vector<MatmulShape> kMatmulShapes = {
    {1, 1, 1},    {3, 5, 7},     {4, 16, 16},  {8, 32, 32},
    {5, 17, 19},  {67, 65, 33},  {129, 31, 5}, {1, 300, 17},
    {257, 3, 1},  {3, 1, 257},   {64, 256, 48}, {50, 257, 50},
};

TEST(KernelsTest, BlockedMultiplyMatchesNaiveAcrossShapes) {
  for (const MatmulShape& s : kMatmulShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 1000 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 2000 + s.n);
    auto reference = naive::Multiply(a, b);
    auto fast = blocked::Multiply(a, b);
    ASSERT_TRUE(reference.ok()) << s.m << "x" << s.k << "x" << s.n;
    ASSERT_TRUE(fast.ok()) << s.m << "x" << s.k << "x" << s.n;
    EXPECT_EQ(fast->rows(), s.m);
    EXPECT_EQ(fast->cols(), s.n);
    // Summation order differs between the variants, so compare to
    // rounding error (k accumulations of O(1) terms).
    EXPECT_LT(reference->MaxAbsDiff(*fast), 1e-10)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

constexpr internal::GemmIsa kAllGemmIsas[] = {internal::GemmIsa::kPortable,
                                               internal::GemmIsa::kAvx2,
                                               internal::GemmIsa::kAvx512};

std::vector<internal::GemmIsa> SupportedGemmIsas() {
  std::vector<internal::GemmIsa> isas;
  for (internal::GemmIsa isa : kAllGemmIsas) {
    if (internal::GemmIsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Every compiled GEMM path this CPU runs, against the reference, on
// shapes around each path's MR (4, 6, 8), NR (8, 16, 24) and KC (256)
// edges, plus the 512^3 workload block.
TEST(KernelsTest, EveryGemmPathMatchesNaiveAcrossRaggedShapes) {
  std::vector<int64_t> ms, qs;
  for (int64_t v = 1; v <= 17; ++v) ms.push_back(v);
  for (int64_t v : {63, 64, 65, 512}) ms.push_back(v);
  for (int64_t v = 1; v <= 33; ++v) qs.push_back(v);
  for (int64_t v : {47, 48, 49, 512}) qs.push_back(v);
  const std::vector<int64_t> ns = {1, 255, 256, 257, 513};
  const std::vector<internal::GemmIsa> isas = SupportedGemmIsas();
  ASSERT_FALSE(isas.empty());
  for (const int64_t m : ms) {
    for (const int64_t n : ns) {
      const Matrix a = RandomMatrix(m, n, 1000 + m * 7 + n);
      for (const int64_t q : qs) {
        const Matrix b = RandomMatrix(n, q, 2000 + n * 7 + q);
        auto reference = naive::Multiply(a, b);
        ASSERT_TRUE(reference.ok());
        for (const internal::GemmIsa isa : isas) {
          auto fast = internal::MultiplyWith(isa, a, b);
          ASSERT_TRUE(fast.ok()) << internal::GemmIsaName(isa);
          ASSERT_EQ(fast->rows(), m);
          ASSERT_EQ(fast->cols(), q);
          ASSERT_LT(reference->MaxAbsDiff(*fast), 1e-10)
              << internal::GemmIsaName(isa) << " " << m << "x" << n << "x"
              << q;
        }
      }
    }
  }
}

TEST(KernelsTest, EveryGemmPathHandlesEmptyOperands) {
  for (const internal::GemmIsa isa : SupportedGemmIsas()) {
    SCOPED_TRACE(internal::GemmIsaName(isa));
    auto zero_k = internal::MultiplyWith(isa, Matrix(5, 0), Matrix(0, 3));
    ASSERT_TRUE(zero_k.ok());
    EXPECT_EQ(*zero_k, Matrix(5, 3, 0.0));
    auto zero_m = internal::MultiplyWith(isa, Matrix(0, 4), Matrix(4, 3));
    ASSERT_TRUE(zero_m.ok());
    EXPECT_EQ(zero_m->rows(), 0);
    EXPECT_EQ(zero_m->cols(), 3);
    auto zero_q = internal::MultiplyWith(isa, Matrix(3, 4), Matrix(4, 0));
    ASSERT_TRUE(zero_q.ok());
    EXPECT_EQ(zero_q->rows(), 3);
    EXPECT_EQ(zero_q->cols(), 0);
    EXPECT_FALSE(internal::MultiplyWith(isa, Matrix(2, 3), Matrix(2, 3)).ok());
  }
}

TEST(KernelsTest, UnsupportedGemmPathIsRefused) {
  for (const internal::GemmIsa isa : kAllGemmIsas) {
    if (internal::GemmIsaSupported(isa)) continue;
    EXPECT_FALSE(internal::MultiplyWith(isa, Matrix(2, 2), Matrix(2, 2)).ok())
        << internal::GemmIsaName(isa);
  }
  EXPECT_TRUE(internal::GemmIsaSupported(internal::GemmIsa::kPortable));
}

// The SIMD tiles differ in shape but not in per-element arithmetic, so
// they must produce the same doubles.
TEST(KernelsTest, SimdGemmPathsAgreeBitForBit) {
  if (!internal::GemmIsaSupported(internal::GemmIsa::kAvx2) ||
      !internal::GemmIsaSupported(internal::GemmIsa::kAvx512)) {
    GTEST_SKIP() << "needs both the AVX2 and the AVX-512 path";
  }
  for (const MatmulShape& s : kMatmulShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 3000 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 4000 + s.n);
    auto avx2 = internal::MultiplyWith(internal::GemmIsa::kAvx2, a, b);
    auto avx512 = internal::MultiplyWith(internal::GemmIsa::kAvx512, a, b);
    ASSERT_TRUE(avx2.ok());
    ASSERT_TRUE(avx512.ok());
    EXPECT_EQ(*avx2, *avx512) << s.m << "x" << s.k << "x" << s.n;
  }
}

// A silent fallback to a narrower kernel would pass every accuracy
// test, so pin the dispatch to what the CPU reports.
TEST(KernelsTest, DispatchPicksWidestSupportedGemmPath) {
  internal::GemmIsa widest = internal::GemmIsa::kPortable;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    widest = internal::GemmIsa::kAvx512;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    widest = internal::GemmIsa::kAvx2;
  }
#endif
  EXPECT_EQ(internal::DispatchedGemmIsa(), widest)
      << "dispatched " << internal::GemmIsaName(internal::DispatchedGemmIsa())
      << ", CPU supports " << internal::GemmIsaName(widest);
  EXPECT_TRUE(internal::GemmIsaSupported(widest));

  const Matrix a = RandomMatrix(65, 257, 5);
  const Matrix b = RandomMatrix(257, 49, 6);
  auto dispatched = blocked::Multiply(a, b);
  auto named = internal::MultiplyWith(widest, a, b);
  ASSERT_TRUE(dispatched.ok());
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(*dispatched, *named);
}

TEST(KernelsTest, BlockedMultiplyIsBitIdenticalAcrossCallsAndThreads) {
  const Matrix a = RandomMatrix(137, 300, 7);
  const Matrix b = RandomMatrix(300, 91, 8);
  auto first = blocked::Multiply(a, b);
  ASSERT_TRUE(first.ok());
  for (int rep = 0; rep < 3; ++rep) {
    auto again = blocked::Multiply(a, b);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first) << "repeat " << rep;
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 5; ++rep) {
        auto c = blocked::Multiply(a, b);
        if (!c.ok() || !(*c == *first)) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(KernelsTest, BlockedMultiplyHandlesEmptyOperands) {
  // k = 0: a well-formed product of all zeros.
  auto zero_k = blocked::Multiply(Matrix(5, 0), Matrix(0, 3));
  ASSERT_TRUE(zero_k.ok());
  EXPECT_EQ(zero_k->rows(), 5);
  EXPECT_EQ(zero_k->cols(), 3);
  for (int64_t i = 0; i < zero_k->size(); ++i) {
    EXPECT_EQ(zero_k->data()[i], 0.0);
  }
  // Empty result shapes.
  auto zero_m = blocked::Multiply(Matrix(0, 4), Matrix(4, 3));
  ASSERT_TRUE(zero_m.ok());
  EXPECT_EQ(zero_m->rows(), 0);
  auto zero_n = blocked::Multiply(Matrix(3, 4), Matrix(4, 0));
  ASSERT_TRUE(zero_n.ok());
  EXPECT_EQ(zero_n->cols(), 0);
}

TEST(KernelsTest, BlockedMultiplyRejectsInnerMismatch) {
  EXPECT_FALSE(blocked::Multiply(Matrix(2, 3), Matrix(2, 3)).ok());
  EXPECT_FALSE(naive::Multiply(Matrix(2, 3), Matrix(2, 3)).ok());
}

TEST(KernelsTest, BlockedAddBitIdenticalToNaive) {
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {3, 7}, {8, 8}, {5, 1023}, {127, 3}, {0, 0}, {0, 5}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix a = RandomMatrix(rows, cols, 31 + rows);
    const Matrix b = RandomMatrix(rows, cols, 77 + cols);
    auto reference = naive::Add(a, b);
    auto fast = blocked::Add(a, b);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(fast.ok());
    ASSERT_EQ(fast->rows(), rows);
    ASSERT_EQ(fast->cols(), cols);
    for (int64_t i = 0; i < reference->size(); ++i) {
      // Same addition order => exactly the same doubles.
      EXPECT_EQ(reference->data()[i], fast->data()[i]);
    }
  }
}

TEST(KernelsTest, BlockedAddRejectsShapeMismatch) {
  EXPECT_FALSE(blocked::Add(Matrix(2, 2), Matrix(2, 3)).ok());
}

TEST(KernelsTest, BlockedTransposeBitIdenticalToNaive) {
  // Tile-multiple, ragged, and degenerate shapes (tile is 64x64).
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {64, 64}, {128, 64}, {65, 63}, {1, 200}, {200, 1},
      {0, 0}, {0, 7},   {7, 0},    {100, 259}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix m = RandomMatrix(rows, cols, 11 + rows * 7 + cols);
    const Matrix reference = naive::Transpose(m);
    const Matrix fast = blocked::Transpose(m);
    ASSERT_EQ(fast.rows(), cols);
    ASSERT_EQ(fast.cols(), rows);
    for (int64_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference.data()[i], fast.data()[i]);
    }
  }
}

TEST(KernelsTest, TransposeRoundTripIsIdentity) {
  const Matrix m = RandomMatrix(37, 91, 5);
  const Matrix round_trip = blocked::Transpose(blocked::Transpose(m));
  ASSERT_EQ(round_trip.rows(), m.rows());
  ASSERT_EQ(round_trip.cols(), m.cols());
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(round_trip.data()[i], m.data()[i]);
  }
}

TEST(KernelsTest, DispatchDefaultsToBlocked) {
  EXPECT_EQ(DefaultKernelVariant(), KernelVariant::kBlocked);
}

TEST(KernelsTest, DispatchFollowsSelectedVariant) {
  const Matrix a = RandomMatrix(33, 47, 1);
  const Matrix b = RandomMatrix(47, 29, 2);

  SetDefaultKernelVariant(KernelVariant::kNaive);
  auto via_naive = Multiply(a, b);
  SetDefaultKernelVariant(KernelVariant::kBlocked);
  auto via_blocked = Multiply(a, b);

  ASSERT_TRUE(via_naive.ok());
  ASSERT_TRUE(via_blocked.ok());
  auto reference = naive::Multiply(a, b);
  auto fast = blocked::Multiply(a, b);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(fast.ok());
  // Pinning the variant reproduces that variant's exact doubles.
  for (int64_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ(via_naive->data()[i], reference->data()[i]);
    EXPECT_EQ(via_blocked->data()[i], fast->data()[i]);
  }
}

TEST(KernelsDeathTest, MatrixRejectsNegativeDimensions) {
  EXPECT_DEATH(Matrix(-1, 3), "non-negative");
  EXPECT_DEATH(Matrix(3, -2), "non-negative");
}

TEST(KernelsDeathTest, MatrixRejectsElementCountOverflow) {
  // 2^32 x 2^32 overflows int64_t element count (the historic bug:
  // rows * cols multiplied in int64_t before the size_t cast).
  const int64_t big = int64_t{1} << 32;
  EXPECT_DEATH(Matrix(big, big), "overflow");
}

}  // namespace
}  // namespace taskbench::data
