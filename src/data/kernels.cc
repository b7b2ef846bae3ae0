#include "data/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <new>

#include "common/strings.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define TASKBENCH_GEMM_X86 1
#include <immintrin.h>
#endif

// The blocked kernels. Everything here is compiled with the project's
// default flags; the SIMD variants (GEMM micro-kernels, Add) carry
// their instruction set in a function-level target attribute and are
// picked once per process from the CPU's feature bits, so a binary
// built on one host runs on any other. The naive reference kernels
// live in matrix.cc.

namespace taskbench::data {

namespace {

std::atomic<KernelVariant> g_default_variant{KernelVariant::kBlocked};

// K-panel depth and packed-B panel width. A KC x NC panel of B
// (256 x 528 doubles, ~1 MiB) stays L2-resident while every MR-row
// slab of A streams past it; an MR x KC A slab (at most 16 KiB) sits
// in L1.
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 528;

// Transpose tile edge: two 64x64 double tiles = 64 KiB, L1/L2 sized.
constexpr int64_t kTransposeTile = 64;

constexpr int64_t RoundUp(int64_t x, int64_t to) {
  return (x + to - 1) / to * to;
}

/// One GEMM micro-kernel: over a KC-deep panel it forms the MR x NR
/// tile sum_k ap[k*MR + r] * bp[k*NR + j] in registers, then stores it
/// into c (row stride ldc), or adds it to c when `accumulate`. `ap` is
/// an MR-interleaved A slab, `bp` an NR-interleaved B slab.
using TileFn = void (*)(const double* ap, const double* bp, double* c,
                        int64_t ldc, int64_t kc, bool accumulate);

struct GemmPath {
  int64_t mr;
  int64_t nr;
  TileFn tile;
};

/// Elements in the largest MR x NR tile (AVX-512's 8 x 24).
constexpr int64_t kMaxTile = 8 * 24;

/// Portable MR x NR tile, 4 x 16, written so the vectorizer of the
/// baseline ISA keeps it in registers.
constexpr int64_t kPortableMr = 4;
constexpr int64_t kPortableNr = 16;

void TilePortable(const double* __restrict ap, const double* __restrict bp,
                  double* __restrict c, int64_t ldc, int64_t kc,
                  bool accumulate) {
  double acc0[kPortableNr] = {};
  double acc1[kPortableNr] = {};
  double acc2[kPortableNr] = {};
  double acc3[kPortableNr] = {};
  for (int64_t k = 0; k < kc; ++k) {
    const double* __restrict bk = bp + k * kPortableNr;
    const double a0 = ap[k * kPortableMr + 0];
    const double a1 = ap[k * kPortableMr + 1];
    const double a2 = ap[k * kPortableMr + 2];
    const double a3 = ap[k * kPortableMr + 3];
    for (int64_t j = 0; j < kPortableNr; ++j) {
      const double bj = bk[j];
      acc0[j] += a0 * bj;
      acc1[j] += a1 * bj;
      acc2[j] += a2 * bj;
      acc3[j] += a3 * bj;
    }
  }
  const double* acc[kPortableMr] = {acc0, acc1, acc2, acc3};
  for (int64_t r = 0; r < kPortableMr; ++r) {
    double* crow = c + r * ldc;
    for (int64_t j = 0; j < kPortableNr; ++j) {
      crow[j] = accumulate ? crow[j] + acc[r][j] : acc[r][j];
    }
  }
}

#ifdef TASKBENCH_GEMM_X86

// The SIMD tiles use explicit FMA and the same per-element order (one
// fused multiply-add per k, starting from zero, then one add into C),
// so the AVX2 and AVX-512 paths produce identical doubles.

/// AVX-512F tile: MR rows of NV 8-wide vectors, MR * NV accumulators.
template <int64_t MR, int64_t NV>
__attribute__((target("avx512f"))) void TileAvx512(
    const double* __restrict ap, const double* __restrict bp,
    double* __restrict c, int64_t ldc, int64_t kc, bool accumulate) {
  constexpr int64_t kNr = 8 * NV;
  __m512d acc[MR][NV];
#pragma GCC unroll 32
  for (int64_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_pd();
  }
  for (int64_t k = 0; k < kc; ++k) {
    __m512d b[NV];
#pragma GCC unroll 4
    for (int64_t v = 0; v < NV; ++v) {
      b[v] = _mm512_load_pd(bp + k * kNr + 8 * v);
    }
#pragma GCC unroll 32
    for (int64_t r = 0; r < MR; ++r) {
      const __m512d a = _mm512_set1_pd(ap[k * MR + r]);
#pragma GCC unroll 4
      for (int64_t v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_fmadd_pd(a, b[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 32
  for (int64_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < NV; ++v) {
      double* dst = c + r * ldc + 8 * v;
      _mm512_storeu_pd(dst, accumulate
                                ? _mm512_add_pd(_mm512_loadu_pd(dst),
                                                acc[r][v])
                                : acc[r][v]);
    }
  }
}

/// AVX2+FMA tile: MR rows of NV 4-wide vectors.
template <int64_t MR, int64_t NV>
__attribute__((target("avx2,fma"))) void TileAvx2(
    const double* __restrict ap, const double* __restrict bp,
    double* __restrict c, int64_t ldc, int64_t kc, bool accumulate) {
  constexpr int64_t kNr = 4 * NV;
  __m256d acc[MR][NV];
#pragma GCC unroll 32
  for (int64_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (int64_t k = 0; k < kc; ++k) {
    __m256d b[NV];
#pragma GCC unroll 4
    for (int64_t v = 0; v < NV; ++v) {
      b[v] = _mm256_load_pd(bp + k * kNr + 4 * v);
    }
#pragma GCC unroll 32
    for (int64_t r = 0; r < MR; ++r) {
      const __m256d a = _mm256_broadcast_sd(ap + k * MR + r);
#pragma GCC unroll 4
      for (int64_t v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_pd(a, b[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 32
  for (int64_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (int64_t v = 0; v < NV; ++v) {
      double* dst = c + r * ldc + 4 * v;
      _mm256_storeu_pd(dst, accumulate
                                ? _mm256_add_pd(_mm256_loadu_pd(dst),
                                                acc[r][v])
                                : acc[r][v]);
    }
  }
}

#endif  // TASKBENCH_GEMM_X86

const GemmPath& PathFor(internal::GemmIsa isa) {
  static constexpr GemmPath kPortable{kPortableMr, kPortableNr, TilePortable};
  static_assert(kPortableMr * kPortableNr <= kMaxTile);
#ifdef TASKBENCH_GEMM_X86
  // 8 x 24: 24 zmm accumulators + 3 B vectors + 1 broadcast of 32.
  static constexpr GemmPath kAvx512{8, 24, TileAvx512<8, 3>};
  // 6 x 8: 12 ymm accumulators + 2 B vectors + 1 broadcast of 16.
  static constexpr GemmPath kAvx2{6, 8, TileAvx2<6, 2>};
  static_assert(kAvx512.mr * kAvx512.nr <= kMaxTile &&
                kAvx2.mr * kAvx2.nr <= kMaxTile);
  if (isa == internal::GemmIsa::kAvx512) return kAvx512;
  if (isa == internal::GemmIsa::kAvx2) return kAvx2;
#endif
  return kPortable;
}

/// 64-byte aligned scratch, left uninitialised.
struct AlignedDelete {
  void operator()(double* p) const {
    ::operator delete[](p, std::align_val_t{64});
  }
};
using PackBuffer = std::unique_ptr<double[], AlignedDelete>;

PackBuffer NewPackBuffer(int64_t doubles) {
  return PackBuffer(static_cast<double*>(::operator new[](
      static_cast<size_t>(doubles) * sizeof(double), std::align_val_t{64})));
}

/// C = A * B on raw row-major buffers (M x N times N x Q), N > 0. C
/// need not be initialised: the first K panel stores into it. Edge
/// tiles run the same micro-kernel over zero-padded packed panels
/// into a scratch tile, so every element sees the same arithmetic.
void Gemm(const GemmPath& path, const double* a, const double* b, double* c,
          int64_t m, int64_t n, int64_t q) {
  const int64_t mr = path.mr;
  const int64_t nr = path.nr;
  const int64_t kc_max = std::min(n, kKc);
  const PackBuffer apack = NewPackBuffer(RoundUp(m, mr) * kc_max);
  const PackBuffer bpack =
      NewPackBuffer(RoundUp(std::min(q, kNc), nr) * kc_max);
  alignas(64) double edge[kMaxTile];
  for (int64_t kk = 0; kk < n; kk += kKc) {
    const int64_t kc = std::min(kKc, n - kk);
    const bool accumulate = kk > 0;
    // A rows [0, m) of this K panel, MR-interleaved and zero-padded to
    // a whole slab: apack[(i/MR)*(kc*MR) + k*MR + r] = A[i+r][kk+k].
    for (int64_t i = 0; i < m; i += mr) {
      double* dst = apack.get() + i * kc;
      const int64_t rows = std::min(mr, m - i);
      for (int64_t k = 0; k < kc; ++k) {
        for (int64_t r = 0; r < rows; ++r) {
          dst[k * mr + r] = a[(i + r) * n + kk + k];
        }
        for (int64_t r = rows; r < mr; ++r) dst[k * mr + r] = 0.0;
      }
    }
    for (int64_t jj = 0; jj < q; jj += kNc) {
      const int64_t nc = std::min(kNc, q - jj);
      // B panel [kk, kk+kc) x [jj, jj+nc) as NR-wide slabs, the last
      // one zero-padded.
      for (int64_t jb = 0; jb < nc; jb += nr) {
        const int64_t cols = std::min(nr, nc - jb);
        double* dst = bpack.get() + jb * kc;
        for (int64_t k = 0; k < kc; ++k) {
          const double* src = b + (kk + k) * q + jj + jb;
          std::copy(src, src + cols, dst + k * nr);
          std::fill(dst + k * nr + cols, dst + (k + 1) * nr, 0.0);
        }
      }
      for (int64_t i = 0; i < m; i += mr) {
        const double* ap = apack.get() + i * kc;
        const int64_t rows = std::min(mr, m - i);
        for (int64_t jb = 0; jb < nc; jb += nr) {
          const double* bp = bpack.get() + jb * kc;
          double* ct = c + i * q + jj + jb;
          const int64_t cols = std::min(nr, nc - jb);
          if (rows == mr && cols == nr) {
            path.tile(ap, bp, ct, q, kc, accumulate);
            continue;
          }
          path.tile(ap, bp, edge, nr, kc, /*accumulate=*/false);
          for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j = 0; j < cols; ++j) {
              const double t = edge[r * nr + j];
              ct[r * q + j] = accumulate ? ct[r * q + j] + t : t;
            }
          }
        }
      }
    }
  }
}

/// pc = pa + pb elementwise, in index order (bit-identical to
/// naive::Add at any vector width).
__attribute__((always_inline)) inline void AddLoop(
    const double* __restrict pa, const double* __restrict pb,
    double* __restrict pc, int64_t size) {
  for (int64_t i = 0; i < size; ++i) pc[i] = pa[i] + pb[i];
}

using AddFn = void (*)(const double*, const double*, double*, int64_t);

void AddPortable(const double* pa, const double* pb, double* pc,
                 int64_t size) {
  AddLoop(pa, pb, pc, size);
}

#ifdef TASKBENCH_GEMM_X86
__attribute__((target("avx2"))) void AddAvx2(const double* pa,
                                             const double* pb, double* pc,
                                             int64_t size) {
  AddLoop(pa, pb, pc, size);
}
#endif

AddFn SelectAdd() {
#ifdef TASKBENCH_GEMM_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return AddAvx2;
#endif
  return AddPortable;
}

Result<Matrix> MultiplyOn(const GemmPath& path, const Matrix& a,
                          const Matrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(StrFormat(
        "matmul inner dimension mismatch: %lldx%lld * %lldx%lld",
        static_cast<long long>(a.rows()), static_cast<long long>(a.cols()),
        static_cast<long long>(b.rows()), static_cast<long long>(b.cols())));
  }
  if (a.cols() == 0) return Matrix(a.rows(), b.cols(), 0.0);
  Matrix c = Matrix::Uninitialized(a.rows(), b.cols());
  if (!c.empty()) {
    Gemm(path, a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  }
  return c;
}

}  // namespace

namespace internal {

const char* GemmIsaName(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx512:
      return "avx512";
    case GemmIsa::kAvx2:
      return "avx2";
    case GemmIsa::kPortable:
      break;
  }
  return "portable";
}

bool GemmIsaSupported(GemmIsa isa) {
#ifdef TASKBENCH_GEMM_X86
  __builtin_cpu_init();
  if (isa == GemmIsa::kAvx512) return __builtin_cpu_supports("avx512f");
  if (isa == GemmIsa::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
  return isa == GemmIsa::kPortable;
}

GemmIsa DispatchedGemmIsa() {
  static const GemmIsa isa = [] {
    for (GemmIsa widest : {GemmIsa::kAvx512, GemmIsa::kAvx2}) {
      if (GemmIsaSupported(widest)) return widest;
    }
    return GemmIsa::kPortable;
  }();
  return isa;
}

Result<Matrix> MultiplyWith(GemmIsa isa, const Matrix& a, const Matrix& b) {
  if (!GemmIsaSupported(isa)) {
    return Status::InvalidArgument(StrFormat(
        "GEMM path %s is not supported by this CPU", GemmIsaName(isa)));
  }
  return MultiplyOn(PathFor(isa), a, b);
}

}  // namespace internal

KernelVariant DefaultKernelVariant() {
  return g_default_variant.load(std::memory_order_relaxed);
}

void SetDefaultKernelVariant(KernelVariant variant) {
  g_default_variant.store(variant, std::memory_order_relaxed);
}

namespace blocked {

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  static const GemmPath& path = PathFor(internal::DispatchedGemmIsa());
  return MultiplyOn(path, a, b);
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument(StrFormat(
        "add shape mismatch: %lldx%lld + %lldx%lld",
        static_cast<long long>(a.rows()), static_cast<long long>(a.cols()),
        static_cast<long long>(b.rows()), static_cast<long long>(b.cols())));
  }
  static const AddFn add = SelectAdd();
  Matrix c = Matrix::Uninitialized(a.rows(), a.cols());
  add(a.data(), b.data(), c.data(), a.size());
  return c;
}

Matrix Transpose(const Matrix& m) {
  Matrix out = Matrix::Uninitialized(m.cols(), m.rows());
  const int64_t rows = m.rows();
  const int64_t cols = m.cols();
  const double* src = m.data();
  double* dst = out.data();
  for (int64_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const int64_t rend = std::min(rows, r0 + kTransposeTile);
    for (int64_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const int64_t cend = std::min(cols, c0 + kTransposeTile);
      for (int64_t r = r0; r < rend; ++r) {
        const double* in_row = src + r * cols;
        for (int64_t c = c0; c < cend; ++c) {
          dst[c * rows + r] = in_row[c];
        }
      }
    }
  }
  return out;
}

}  // namespace blocked

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  return DefaultKernelVariant() == KernelVariant::kBlocked
             ? blocked::Multiply(a, b)
             : naive::Multiply(a, b);
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  return DefaultKernelVariant() == KernelVariant::kBlocked
             ? blocked::Add(a, b)
             : naive::Add(a, b);
}

Matrix Transpose(const Matrix& m) {
  return DefaultKernelVariant() == KernelVariant::kBlocked
             ? blocked::Transpose(m)
             : naive::Transpose(m);
}

}  // namespace taskbench::data
