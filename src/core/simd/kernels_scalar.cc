// Scalar reference kernels. This is the arithmetic the pre-SIMD
// DenseVector loops performed (four independent accumulators, pairwise
// (s0+s1)+(s2+s3) reduction, sequential remainder), moved verbatim
// into the dispatch layer: the vector tiers reproduce its results
// bit-for-bit, and tests/simd_test pins them against this file.
//
// Built with -ffp-contract=off (see src/core/CMakeLists.txt) so the
// compiler cannot fuse any a*b+c into an FMA behind our back — the
// rounding of every kernel is exactly one multiply round plus one add
// round per element at every dispatch level.
#include "core/simd/kernels.h"

namespace mllibstar {
namespace simd {

double SparseDotF64Scalar(const double* __restrict w,
                          const FeatureIndex* __restrict idx,
                          const double* __restrict val, size_t nnz) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    s0 += w[idx[i]] * val[i];
    s1 += w[idx[i + 1]] * val[i + 1];
    s2 += w[idx[i + 2]] * val[i + 2];
    s3 += w[idx[i + 3]] * val[i + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < nnz; ++i) sum += w[idx[i]] * val[i];
  return sum;
}

void SparseAxpyF64Scalar(double* __restrict w,
                         const FeatureIndex* __restrict idx,
                         const double* __restrict val, size_t nnz,
                         double alpha) {
  // Each coordinate updates independently (indices are strictly
  // increasing within a row), so unrolling cannot change the result;
  // it only breaks the loop-carried address dependence.
  size_t i = 0;
  for (; i + 4 <= nnz; i += 4) {
    w[idx[i]] += alpha * val[i];
    w[idx[i + 1]] += alpha * val[i + 1];
    w[idx[i + 2]] += alpha * val[i + 2];
    w[idx[i + 3]] += alpha * val[i + 3];
  }
  for (; i < nnz; ++i) w[idx[i]] += alpha * val[i];
}

double DenseDotScalar(const double* __restrict a,
                      const double* __restrict b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void DenseAxpyScalar(double* __restrict w, const double* __restrict x,
                     size_t n, double alpha) {
  for (size_t i = 0; i < n; ++i) w[i] += alpha * x[i];
}

void RowMarginsF64Scalar(const double* w, const RowSpans& rows,
                         const size_t* list, size_t list_size, size_t begin,
                         size_t count, double* out) {
  RowMarginsLoop<&SparseDotF64Scalar>(w, rows, list, list_size, begin, count,
                                      out);
}

}  // namespace simd
}  // namespace mllibstar
