// SSE2 kernels (the x86-64 baseline ISA, always available there).
// 128-bit lanes hold the scalar reference's accumulators two at a
// time: one xmm carries (s0, s1), a second carries (s2, s3), and the
// reduction is the same (s0+s1)+(s2+s3) — per-lane rounding is one
// multiply plus one add, so the results are bit-identical to the
// scalar tier. SSE2 has no gather; weight loads stay scalar and get
// packed into lanes.
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include "core/simd/kernels.h"

namespace mllibstar {
namespace simd {
namespace {

inline double Lane0(__m128d v) { return _mm_cvtsd_f64(v); }
inline double Lane1(__m128d v) {
  return _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
}

// (s0+s1)+(s2+s3) with the exact scalar association.
inline double Reduce4(__m128d s01, __m128d s23) {
  return (Lane0(s01) + Lane1(s01)) + (Lane0(s23) + Lane1(s23));
}

}  // namespace

double SparseDotF64Sse2(const double* __restrict w,
                        const FeatureIndex* __restrict idx,
                        const double* __restrict val, size_t nnz) {
  __m128d s01 = _mm_setzero_pd();
  __m128d s23 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    const __m128d w01 = _mm_set_pd(w[idx[i + 1]], w[idx[i]]);
    const __m128d w23 = _mm_set_pd(w[idx[i + 3]], w[idx[i + 2]]);
    s01 = _mm_add_pd(s01, _mm_mul_pd(w01, _mm_loadu_pd(val + i)));
    s23 = _mm_add_pd(s23, _mm_mul_pd(w23, _mm_loadu_pd(val + i + 2)));
  }
  double sum = Reduce4(s01, s23);
  for (; i < nnz; ++i) sum += w[idx[i]] * val[i];
  return sum;
}

void SparseAxpyF64Sse2(double* __restrict w,
                       const FeatureIndex* __restrict idx,
                       const double* __restrict val, size_t nnz,
                       double alpha) {
  // The products vectorize; the scatter stores stay scalar (SSE2 has
  // no scatter). Updates are per-coordinate independent,
  // so this is bit-identical to the scalar tier by construction.
  const __m128d a = _mm_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    const __m128d p01 = _mm_mul_pd(a, _mm_loadu_pd(val + i));
    const __m128d p23 = _mm_mul_pd(a, _mm_loadu_pd(val + i + 2));
    w[idx[i]] += Lane0(p01);
    w[idx[i + 1]] += Lane1(p01);
    w[idx[i + 2]] += Lane0(p23);
    w[idx[i + 3]] += Lane1(p23);
  }
  for (; i < nnz; ++i) w[idx[i]] += alpha * val[i];
}

double DenseDotSse2(const double* __restrict a, const double* __restrict b,
                    size_t n) {
  __m128d s01 = _mm_setzero_pd();
  __m128d s23 = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s01 = _mm_add_pd(s01,
                     _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    s23 = _mm_add_pd(
        s23, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  double sum = Reduce4(s01, s23);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void DenseAxpySse2(double* __restrict w, const double* __restrict x,
                   size_t n, double alpha) {
  const __m128d a = _mm_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_pd(
        w + i,
        _mm_add_pd(_mm_loadu_pd(w + i), _mm_mul_pd(a, _mm_loadu_pd(x + i))));
    _mm_storeu_pd(w + i + 2,
                  _mm_add_pd(_mm_loadu_pd(w + i + 2),
                             _mm_mul_pd(a, _mm_loadu_pd(x + i + 2))));
  }
  for (; i < n; ++i) w[i] += alpha * x[i];
}

void RowMarginsF64Sse2(const double* w, const RowSpans& rows,
                       const size_t* list, size_t list_size, size_t begin,
                       size_t count, double* out) {
  RowMarginsLoop<&SparseDotF64Sse2>(w, rows, list, list_size, begin, count,
                                    out);
}

}  // namespace simd
}  // namespace mllibstar

#endif  // x86-64
