#ifndef MLLIBSTAR_CORE_SIMD_DISPATCH_H_
#define MLLIBSTAR_CORE_SIMD_DISPATCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mllibstar {

/// Index type for feature dimensions. 32 bits covers the paper's
/// largest model (54.7M features) with room to spare.
using FeatureIndex = uint32_t;

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

/// A CsrBlock's arrays as the block kernel reads them
/// (CsrBlock::spans()). Row r holds the nonzeros
/// [offsets[r], offsets[r+1]) of `indices`, and of `values` when the
/// block stores them; a value-free block's rows all read `ones`.
struct RowSpans {
  const uint64_t* offsets;
  const FeatureIndex* indices;
  const double* values;  ///< null for a value-free block
  const double* ones;    ///< every row's values when `values` is null
  const double* labels;  ///< read by no kernel, only prefetched
};

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

  /// out[j] = w · row r(begin + j) for j < count, where r(i) = list[i]
  /// when `list` is non-null (a sampled or shuffled row list of
  /// `list_size` rows, which may repeat) and r(i) = i otherwise. Each
  /// margin is this tier's sparse_dot_f64 of the row, so it has the
  /// bits a per-row call gives. Over a list the kernel also prefetches
  /// the rows a fixed distance ahead (kRowPrefetchDistance), up to the
  /// list's end (past `count`), which changes no result.
  void (*row_margins)(const double* w, const RowSpans& rows,
                      const size_t* list, size_t list_size, size_t begin,
                      size_t count, double* out);
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

namespace internal {
/// The active table; null until the first Kernels() call picks the
/// initial level.
extern std::atomic<const KernelDispatch*> active_table;
const KernelDispatch& InitActiveTable();
}  // namespace internal

/// The active kernel table. One acquire load, inline; safe to call
/// from any thread at any time.
inline const KernelDispatch& Kernels() {
  const KernelDispatch* table =
      internal::active_table.load(std::memory_order_acquire);
  return table != nullptr ? *table : internal::InitActiveTable();
}

/// The table for a specific level (clamped to the detected level) —
/// lets tests and benches compare tiers side by side without touching
/// the global choice.
const KernelDispatch& KernelsFor(SimdLevel level);

}  // namespace simd
}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_SIMD_DISPATCH_H_
