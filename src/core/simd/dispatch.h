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
/// level the CPU supports (AVX2 additionally requires FMA).
enum class SimdLevel {
  kScalar = 0,  ///< portable C++, the bit-exact reference
  kSse2 = 1,    ///< 128-bit lanes (baseline on x86-64)
  kAvx2 = 2,    ///< 256-bit lanes; FMA on the f32 path only
  kAvx512 = 3,  ///< 8-wide gathers on the f32 path; f64 stays at the
                ///< AVX2 forms (the bit-exact four-lane structure)
};

/// Short identifier ("scalar", "sse2", "avx2", "avx512") used in
/// bench output and accepted by the MLLIBSTAR_SIMD env override.
const char* SimdLevelName(SimdLevel level);

/// Parses a level name (also accepts "auto" → nullopt = detect).
std::optional<SimdLevel> ParseSimdLevel(std::string_view name);

/// The kernel table one dispatch level fills in. Raw-pointer
/// signatures so `core/vector` can route both its offset-0 and
/// class-block-offset entry points through the same function.
///
/// Contract: the f64 kernels reproduce the scalar reference
/// *bit-for-bit* at every level — same four-lane accumulator split,
/// same (s0+s1)+(s2+s3) reduction, same sequential remainder, no FMA
/// contraction — so switching dispatch levels can never perturb a
/// simulated result. The f32 kernels read float values, widen, and
/// accumulate in f64; they are tolerance-checked (not bit-pinned)
/// across levels because the AVX2 tier fuses multiply-adds.
struct KernelDispatch {
  SimdLevel level;

  /// Σ w[indices[i]] · values[i]
  double (*sparse_dot_f64)(const double* w, const FeatureIndex* indices,
                           const double* values, size_t nnz);
  double (*sparse_dot_f32)(const double* w, const FeatureIndex* indices,
                           const float* values, size_t nnz);

  /// w[indices[i]] += alpha · values[i]  (indices strictly increasing)
  void (*sparse_axpy_f64)(double* w, const FeatureIndex* indices,
                          const double* values, size_t nnz, double alpha);
  void (*sparse_axpy_f32)(double* w, const FeatureIndex* indices,
                          const float* values, size_t nnz, double alpha);

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
/// ("scalar"/"sse2"/"avx2"/"avx512"/"auto", default auto) clamped the
/// same way.
SimdLevel SetSimdLevel(SimdLevel level);

/// The active kernel table. One relaxed atomic load; safe to call
/// from any thread at any time.
const KernelDispatch& Kernels();

/// The table for a specific level (clamped to the detected level) —
/// lets tests and benches compare tiers side by side without touching
/// the global choice.
const KernelDispatch& KernelsFor(SimdLevel level);

}  // namespace simd

/// Numeric precision of the training compute path
/// (`TrainerConfig::compute_precision`).
///
/// kF64 is the reference mode: every kernel reads f64 feature values
/// and all existing bit-identity guarantees hold exactly. kF32 reads
/// the CsrBlock's float32 copy of the feature values (half the value
/// bytes per nnz) while model reads and every accumulation stay f64 —
/// the same storage-narrowing the f32 wire codec applies to models,
/// with the same kind of accuracy budget. Evaluation (`Trainer::Eval`)
/// always runs f64, so precision drift shows up in the objective
/// curves rather than being hidden by a narrowed measuring stick.
enum class ComputePrecision {
  kF64 = 0,  ///< bit-exact reference (default)
  kF32 = 1,  ///< f32 feature values, f64 model reads + accumulators
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_SIMD_DISPATCH_H_
