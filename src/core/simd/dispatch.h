#ifndef MLLIBSTAR_CORE_SIMD_DISPATCH_H_
#define MLLIBSTAR_CORE_SIMD_DISPATCH_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/vector.h"

namespace mllibstar {
namespace simd {

/// Instruction-set tiers the kernel layer ships. Ordered: a level
/// implies every lower one, and runtime dispatch picks the highest
/// level the CPU supports.
enum class SimdLevel {
  kScalar = 0,  ///< portable C++, the bit-exact reference
  kSse2 = 1,    ///< 128-bit lanes (baseline on x86-64)
  kAvx2 = 2,    ///< 256-bit lanes
};

/// Short identifier ("scalar", "sse2", "avx2") used in bench output
/// and accepted by the MLLIBSTAR_SIMD env override.
const char* SimdLevelName(SimdLevel level);

/// Parses a level name (also accepts "auto" → nullopt = detect).
std::optional<SimdLevel> ParseSimdLevel(std::string_view name);

/// The kernel table one dispatch level fills in. Raw-pointer
/// signatures so `core/vector` can route its SparseVector and CsrBlock
/// row-span entry points through the same function.
///
/// Contract: every kernel reproduces the scalar reference
/// *bit-for-bit* at every level — same four-lane accumulator split,
/// same (s0+s1)+(s2+s3) reduction, same sequential remainder, no FMA
/// contraction — so switching dispatch levels can never perturb a
/// simulated result.
struct KernelDispatch {
  SimdLevel level;

  /// Σ w[indices[i]] · values[i]
  double (*sparse_dot_f64)(const double* w, const FeatureIndex* indices,
                           const double* values, size_t nnz);

  /// w[indices[i]] += alpha · values[i]  (indices strictly increasing)
  void (*sparse_axpy_f64)(double* w, const FeatureIndex* indices,
                          const double* values, size_t nnz, double alpha);

  /// Σ a[i] · b[i]
  double (*dense_dot)(const double* a, const double* b, size_t n);

  /// w[i] += alpha · x[i]
  void (*dense_axpy)(double* w, const double* x, size_t n, double alpha);
};

/// Highest level this CPU can run (CPUID probe, cached).
SimdLevel DetectedSimdLevel();

/// The level the active table was built for.
SimdLevel ActiveSimdLevel();

/// Forces the active table to `level`, clamped to DetectedSimdLevel();
/// returns the level actually applied. Thread-safe, but intended for
/// test/bench setup, not for flipping mid-computation. The initial
/// level comes from the MLLIBSTAR_SIMD environment variable
/// ("scalar"/"sse2"/"avx2"/"auto", default auto) clamped the same way.
SimdLevel SetSimdLevel(SimdLevel level);

/// The active kernel table. One acquire load; safe to call
/// from any thread at any time.
const KernelDispatch& Kernels();

/// The table for a specific level (clamped to the detected level) —
/// lets tests and benches compare tiers side by side without touching
/// the global choice.
const KernelDispatch& KernelsFor(SimdLevel level);

}  // namespace simd
}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_SIMD_DISPATCH_H_
