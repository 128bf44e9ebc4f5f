// AVX2 kernels. 256-bit lanes carry all four of the scalar
// reference's accumulators in one register; the sparse dot packs the
// four weight loads with _mm256_set_pd (measured faster than
// vgatherdpd on every CPU we benched — the gather's index-vector
// round-trip costs more than four scalar loads that all hit cache).
// Every kernel uses separate multiply and add (never FMA) and the
// exact (s0+s1)+(s2+s3) reduction, so it is bit-identical to the
// scalar tier.
//
// This TU is the only one built with -mavx2; it must never be entered
// on a CPU without AVX2 (the dispatch probe guarantees that).
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "core/simd/kernels.h"

namespace mllibstar {
namespace simd {
namespace {

// (s0+s1)+(s2+s3) with the exact scalar association.
inline double Reduce4(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);     // s0, s1
  const __m128d hi = _mm256_extractf128_pd(acc, 1);   // s2, s3
  const double s0 = _mm_cvtsd_f64(lo);
  const double s1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double s2 = _mm_cvtsd_f64(hi);
  const double s3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (s0 + s1) + (s2 + s3);
}

// Four scalar weight loads packed into one 256-bit register
// (vmovsd/vmovhpd + vinsertf128 under the hood).
inline __m256d Pack4(const double* w, const FeatureIndex* idx) {
  return _mm256_set_pd(w[idx[3]], w[idx[2]], w[idx[1]], w[idx[0]]);
}

}  // namespace

double SparseDotF64Avx2(const double* __restrict w,
                        const FeatureIndex* __restrict idx,
                        const double* __restrict val, size_t nnz) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(Pack4(w, idx + i), _mm256_loadu_pd(val + i)));
  }
  double sum = Reduce4(acc);
  for (; i < nnz; ++i) sum += w[idx[i]] * val[i];
  return sum;
}

void SparseAxpyF64Avx2(double* __restrict w,
                       const FeatureIndex* __restrict idx,
                       const double* __restrict val, size_t nnz,
                       double alpha) {
  // Vector products, scalar scatter stores (AVX2 has no scatter).
  // Per-coordinate independence keeps this bit-identical.
  const __m256d a = _mm256_set1_pd(alpha);
  alignas(32) double p[4];
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    _mm256_store_pd(p, _mm256_mul_pd(a, _mm256_loadu_pd(val + i)));
    w[idx[i]] += p[0];
    w[idx[i + 1]] += p[1];
    w[idx[i + 2]] += p[2];
    w[idx[i + 3]] += p[3];
  }
  for (; i < nnz; ++i) w[idx[i]] += alpha * val[i];
}

double DenseDotAvx2(const double* __restrict a, const double* __restrict b,
                    size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double sum = Reduce4(acc);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void DenseAxpyAvx2(double* __restrict w, const double* __restrict x,
                   size_t n, double alpha) {
  const __m256d a = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(w + i,
                     _mm256_add_pd(_mm256_loadu_pd(w + i),
                                   _mm256_mul_pd(a, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) w[i] += alpha * x[i];
}

void RowMarginsF64Avx2(const double* w, const RowSpans& rows,
                       const size_t* list, size_t list_size, size_t begin,
                       size_t count, double* out) {
  RowMarginsLoop<&SparseDotF64Avx2>(w, rows, list, list_size, begin, count,
                                    out);
}

}  // namespace simd
}  // namespace mllibstar

#endif  // x86-64
