#ifndef TASKBENCH_DATA_KERNELS_H_
#define TASKBENCH_DATA_KERNELS_H_

#include "common/result.h"
#include "data/matrix.h"

namespace taskbench::data {

/// Which implementation family the dispatching entry points
/// (data::Multiply / data::Add / data::Transpose) resolve to.
///
/// The real-execution path wants the fastest kernels the host can
/// run; the correctness tests and the kernel benchmark want to pin a
/// specific variant and compare the two. This is the kernel-dispatch
/// seam: algos call the dispatching functions and automatically pick
/// up the blocked variants, while callers that need a particular
/// implementation name it explicitly.
enum class KernelVariant {
  kNaive,    ///< reference loops (the pre-fast-path kernels)
  kBlocked,  ///< cache-blocked, register-tiled variants
};

/// Variant used by the dispatching entry points. Defaults to
/// kBlocked.
KernelVariant DefaultKernelVariant();

/// Overrides the dispatch default (benchmark / test seam). Safe to
/// call concurrently with kernel execution; in-flight kernels finish
/// on the variant they started with.
void SetDefaultKernelVariant(KernelVariant variant);

/// Reference implementations: the exact pre-fast-path loops. Kept as
/// the comparison baseline for the kernel correctness suite and the
/// speedup benchmark.
namespace naive {

/// C = A * B with the i-k-j streaming loop. Fails on inner-dimension
/// mismatch.
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

/// C = A + B elementwise. Fails on shape mismatch.
Result<Matrix> Add(const Matrix& a, const Matrix& b);

/// Row-by-row transpose.
Matrix Transpose(const Matrix& m);

}  // namespace naive

/// Fast implementations: cache-blocked and register-tiled (see
/// docs/REAL_EXECUTION.md for the tile geometry).
namespace blocked {

/// C = A * B via packed-panel GEMM: B is repacked into contiguous
/// KC x NR slabs, A into KC x MR slabs, and an MR x NR register-tile
/// micro-kernel accumulates in registers across each K panel. The
/// micro-kernel is the widest one this CPU runs (AVX-512F, AVX2+FMA,
/// or portable C++), chosen once per process. Summation order differs
/// from naive::Multiply, so results agree to rounding (not
/// bit-exactly).
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

/// C = A + B with a streaming loop (AVX2 where the CPU has it).
/// Bit-identical to naive::Add (each element is one addition).
Result<Matrix> Add(const Matrix& a, const Matrix& b);

/// Cache-blocked transpose (square tiles sized for L1). Bit-identical
/// to naive::Transpose.
Matrix Transpose(const Matrix& m);

}  // namespace blocked

/// The GEMM paths blocked::Multiply selects between, exposed for tests.
namespace internal {

enum class GemmIsa {
  kPortable,  ///< baseline C++, any CPU
  kAvx2,      ///< AVX2 + FMA, 6 x 8 tile
  kAvx512,    ///< AVX-512F, 8 x 24 tile
};

const char* GemmIsaName(GemmIsa isa);

/// True when this binary has the path and this CPU can run it.
bool GemmIsaSupported(GemmIsa isa);

/// The path blocked::Multiply runs: the widest supported one.
GemmIsa DispatchedGemmIsa();

/// blocked::Multiply on a named path; fails when the path is not
/// supported. The AVX2 and AVX-512 paths agree bit for bit.
Result<Matrix> MultiplyWith(GemmIsa isa, const Matrix& a, const Matrix& b);

}  // namespace internal

}  // namespace taskbench::data

#endif  // TASKBENCH_DATA_KERNELS_H_
