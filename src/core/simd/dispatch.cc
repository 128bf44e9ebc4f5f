#include "core/simd/dispatch.h"

#include <atomic>
#include <cstdlib>

#include "common/logging.h"
#include "core/simd/kernels.h"

namespace mllibstar {
namespace simd {
namespace {

constexpr KernelDispatch kScalarTable = {
    SimdLevel::kScalar, &SparseDotF64Scalar, &SparseAxpyF64Scalar,
    &DenseDotScalar,    &DenseAxpyScalar,    &RowMarginsF64Scalar,
};

#if defined(__x86_64__) || defined(_M_X64)
constexpr KernelDispatch kSse2Table = {
    SimdLevel::kSse2, &SparseDotF64Sse2, &SparseAxpyF64Sse2,
    &DenseDotSse2,    &DenseAxpySse2,    &RowMarginsF64Sse2,
};

constexpr KernelDispatch kAvx2Table = {
    SimdLevel::kAvx2, &SparseDotF64Avx2, &SparseAxpyF64Avx2,
    &DenseDotAvx2,    &DenseAxpyAvx2,    &RowMarginsF64Avx2,
};
#endif

const KernelDispatch& TableFor(SimdLevel level) {
  switch (level) {
#if defined(__x86_64__) || defined(_M_X64)
    case SimdLevel::kAvx2:
      return kAvx2Table;
    case SimdLevel::kSse2:
      return kSse2Table;
#endif
    default:
      return kScalarTable;
  }
}

SimdLevel ProbeCpu() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;  // baseline on x86-64
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel Clamp(SimdLevel requested, SimdLevel detected) {
  return static_cast<int>(requested) <= static_cast<int>(detected)
             ? requested
             : detected;
}

// Initial level: MLLIBSTAR_SIMD env override ("scalar"/"sse2"/"avx2",
// anything else or "auto" = detect), clamped to what the CPU can run.
SimdLevel InitialLevel(SimdLevel detected) {
  const char* env = std::getenv("MLLIBSTAR_SIMD");
  if (env != nullptr) {
    const std::optional<SimdLevel> parsed = ParseSimdLevel(env);
    if (parsed.has_value()) return Clamp(*parsed, detected);
    if (std::string_view(env) != "auto" && std::string_view(env) != "") {
      LOG_WARNING() << "MLLIBSTAR_SIMD=" << env
                    << " is not scalar/sse2/avx2/auto; using runtime "
                       "detection";
    }
  }
  return detected;
}

}  // namespace

namespace internal {

constinit std::atomic<const KernelDispatch*> active_table{nullptr};

const KernelDispatch& InitActiveTable() {
  const KernelDispatch* expected = nullptr;
  // A SetSimdLevel that got here first keeps its table.
  active_table.compare_exchange_strong(
      expected, &TableFor(InitialLevel(DetectedSimdLevel())),
      std::memory_order_acq_rel);
  return *active_table.load(std::memory_order_acquire);
}

}  // namespace internal

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<SimdLevel> ParseSimdLevel(std::string_view name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "sse2") return SimdLevel::kSse2;
  if (name == "avx2") return SimdLevel::kAvx2;
  return std::nullopt;
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = ProbeCpu();
  return detected;
}

SimdLevel ActiveSimdLevel() { return Kernels().level; }

SimdLevel SetSimdLevel(SimdLevel level) {
  const SimdLevel applied = Clamp(level, DetectedSimdLevel());
  internal::active_table.store(&TableFor(applied),
                               std::memory_order_release);
  return applied;
}

const KernelDispatch& KernelsFor(SimdLevel level) {
  return TableFor(Clamp(level, DetectedSimdLevel()));
}

}  // namespace simd

}  // namespace mllibstar
