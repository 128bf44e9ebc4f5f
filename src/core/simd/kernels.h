#ifndef MLLIBSTAR_CORE_SIMD_KERNELS_H_
#define MLLIBSTAR_CORE_SIMD_KERNELS_H_

// Internal declarations of the per-level kernel implementations the
// dispatch table points at. Each tier lives in its own translation
// unit so it can carry its own -m flags (kernels_avx2.cc is built
// with -mavx2); like every library TU they are built with
// -ffp-contract=off, so no compiler-fused multiply-add can break the
// bit-equality contract between tiers. Not part of the public API —
// callers go through simd::Kernels() (or DenseVector and CsrBlock,
// which route there).

#include <cstddef>

#include "core/simd/dispatch.h"

namespace mllibstar {
namespace simd {

#define MLLIBSTAR_DECLARE_KERNELS(SUFFIX)                                  \
  double SparseDotF64##SUFFIX(const double* w, const FeatureIndex* idx,    \
                              const double* val, size_t nnz);              \
  void SparseAxpyF64##SUFFIX(double* w, const FeatureIndex* idx,           \
                             const double* val, size_t nnz, double alpha); \
  double DenseDot##SUFFIX(const double* a, const double* b, size_t n);     \
  void DenseAxpy##SUFFIX(double* w, const double* x, size_t n,             \
                         double alpha);                                    \
  void RowMarginsF64##SUFFIX(const double* w, const RowSpans& rows,        \
                             const size_t* list, size_t list_size,         \
                             size_t begin, size_t count, double* out)

MLLIBSTAR_DECLARE_KERNELS(Scalar);

#if defined(__x86_64__) || defined(_M_X64)
MLLIBSTAR_DECLARE_KERNELS(Sse2);
MLLIBSTAR_DECLARE_KERNELS(Avx2);
#endif

#undef MLLIBSTAR_DECLARE_KERNELS

// List entries ahead of the current one whose index (and value) span
// row_margins prefetches; the offsets and label of the row twice as far
// ahead are prefetched too, so the span prefetch finds its row's
// offsets in cache.
inline constexpr size_t kRowPrefetchDistance = 8;

// The row_margins loop, instantiated once per tier around that tier's
// own sparse dot, in that tier's TU (so it compiles with the tier's
// ISA flags). It touches nothing but raw pointers and the prefetch
// builtin, so no inline code compiled for one ISA is shared with
// another. Every margin is Dot of the row's spans, exactly as a
// per-row call makes it; the prefetches only move lines into cache.
template <double (*Dot)(const double*, const FeatureIndex*, const double*,
                        size_t)>
void RowMarginsLoop(const double* w, const RowSpans& rows,
                    const size_t* list, size_t list_size, size_t begin,
                    size_t count, double* out) {
  const uint64_t* offsets = rows.offsets;
  if (list == nullptr) {
    // A range streams; the hardware prefetcher keeps up with it.
    for (size_t j = 0; j < count; ++j) {
      const size_t r = begin + j;
      const uint64_t lo = offsets[r];
      out[j] = Dot(w, rows.indices + lo,
                   rows.values != nullptr ? rows.values + lo : rows.ones,
                   offsets[r + 1] - lo);
    }
    return;
  }
  constexpr size_t kAhead = kRowPrefetchDistance;
  for (size_t i = begin; i < begin + count; ++i) {
    if (i + 2 * kAhead < list_size) {
      const size_t far = list[i + 2 * kAhead];
      __builtin_prefetch(offsets + far);
      __builtin_prefetch(rows.labels + far);
    }
    if (i + kAhead < list_size) {
      const size_t near = list[i + kAhead];
      const uint64_t lo = offsets[near];
      const uint64_t hi = offsets[near + 1];
      if (hi > lo) {  // the span's first and last lines
        __builtin_prefetch(rows.indices + lo);
        __builtin_prefetch(rows.indices + (hi - 1));
        if (rows.values != nullptr) {
          __builtin_prefetch(rows.values + lo);
          __builtin_prefetch(rows.values + (hi - 1));
        }
      }
    }
    const size_t r = list[i];
    const uint64_t lo = offsets[r];
    out[i - begin] = Dot(w, rows.indices + lo,
                         rows.values != nullptr ? rows.values + lo
                                                : rows.ones,
                         offsets[r + 1] - lo);
  }
}

}  // namespace simd
}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_SIMD_KERNELS_H_
