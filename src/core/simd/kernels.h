#ifndef MLLIBSTAR_CORE_SIMD_KERNELS_H_
#define MLLIBSTAR_CORE_SIMD_KERNELS_H_

// Internal declarations of the per-level kernel implementations the
// dispatch table points at. Each tier lives in its own translation
// unit so it can carry its own -m flags (kernels_avx2.cc is built
// with -mavx2); all three are built with -ffp-contract=off so no
// compiler-fused multiply-add can break the bit-equality contract
// between tiers. Not part of the public API — callers go
// through simd::Kernels() (or DenseVector, which routes there).

#include <cstddef>

#include "core/vector.h"

namespace mllibstar {
namespace simd {

#define MLLIBSTAR_DECLARE_KERNELS(SUFFIX)                                  \
  double SparseDotF64##SUFFIX(const double* w, const FeatureIndex* idx,    \
                              const double* val, size_t nnz);              \
  void SparseAxpyF64##SUFFIX(double* w, const FeatureIndex* idx,           \
                             const double* val, size_t nnz, double alpha); \
  double DenseDot##SUFFIX(const double* a, const double* b, size_t n);     \
  void DenseAxpy##SUFFIX(double* w, const double* x, size_t n, double alpha)

MLLIBSTAR_DECLARE_KERNELS(Scalar);

#if defined(__x86_64__) || defined(_M_X64)
MLLIBSTAR_DECLARE_KERNELS(Sse2);
MLLIBSTAR_DECLARE_KERNELS(Avx2);
#endif

#undef MLLIBSTAR_DECLARE_KERNELS

}  // namespace simd
}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_SIMD_KERNELS_H_
