#include "core/vector.h"

#include <cmath>

#include "common/logging.h"
#include "core/simd/dispatch.h"

namespace mllibstar {

bool SparseVector::IsSorted() const {
  for (size_t i = 1; i < indices.size(); ++i) {
    if (indices[i] <= indices[i - 1]) return false;
  }
  return true;
}

double SparseVector::SquaredNorm() const {
  double sum = 0.0;
  for (double v : values) sum += v * v;
  return sum;
}

void DenseVector::SetZero() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

// Every dot/axpy below routes through the runtime-dispatched kernel
// table (core/simd/dispatch.h). The scalar tier is the pre-SIMD code
// of this file moved verbatim, and the vector tiers reproduce its f64
// arithmetic bit-for-bit, so which tier runs can never change a
// simulated result — only how fast it is produced.

void DenseVector::AddScaled(const SparseVector& x, double alpha) {
  AddScaled(x.indices.data(), x.values.data(), x.nnz(), alpha);
}

void DenseVector::AddScaled(const FeatureIndex* indices,
                            const double* values, size_t nnz, double alpha) {
  simd::Kernels().sparse_axpy_f64(values_.data(), indices, values, nnz,
                                  alpha);
}

void DenseVector::AddScaled(const FeatureIndex* indices,
                            const float* values, size_t nnz, double alpha) {
  simd::Kernels().sparse_axpy_f32(values_.data(), indices, values, nnz,
                                  alpha);
}

void DenseVector::AddScaled(const FeatureIndex* indices,
                            const double* values, size_t nnz, double alpha,
                            size_t offset) {
  // Same kernel as the offset-0 overload with the destination shifted
  // into a class block (offset + indices[i] must be < dim()).
  simd::Kernels().sparse_axpy_f64(values_.data() + offset, indices, values,
                                  nnz, alpha);
}

void DenseVector::AddScaled(const FeatureIndex* indices,
                            const float* values, size_t nnz, double alpha,
                            size_t offset) {
  simd::Kernels().sparse_axpy_f32(values_.data() + offset, indices, values,
                                  nnz, alpha);
}

void DenseVector::AddScaled(const DenseVector& x, double alpha) {
  MLLIBSTAR_CHECK_EQ(dim(), x.dim());
  simd::Kernels().dense_axpy(values_.data(), x.data(), values_.size(),
                             alpha);
}

void DenseVector::Scale(double alpha) {
  for (double& v : values_) v *= alpha;
}

double DenseVector::Dot(const SparseVector& x) const {
  return Dot(x.indices.data(), x.values.data(), x.nnz());
}

double DenseVector::Dot(const FeatureIndex* indices, const double* values,
                        size_t nnz) const {
  return simd::Kernels().sparse_dot_f64(values_.data(), indices, values,
                                        nnz);
}

double DenseVector::Dot(const FeatureIndex* indices, const float* values,
                        size_t nnz) const {
  return simd::Kernels().sparse_dot_f32(values_.data(), indices, values,
                                        nnz);
}

double DenseVector::Dot(const FeatureIndex* indices, const double* values,
                        size_t nnz, size_t offset) const {
  // Same accumulator structure as the offset-0 overload, so margins
  // are bit-identical whichever class block they read.
  return simd::Kernels().sparse_dot_f64(values_.data() + offset, indices,
                                        values, nnz);
}

double DenseVector::Dot(const FeatureIndex* indices, const float* values,
                        size_t nnz, size_t offset) const {
  return simd::Kernels().sparse_dot_f32(values_.data() + offset, indices,
                                        values, nnz);
}

double DenseVector::Dot(const DenseVector& x) const {
  MLLIBSTAR_CHECK_EQ(dim(), x.dim());
  return simd::Kernels().dense_dot(values_.data(), x.data(),
                                   values_.size());
}

double DenseVector::Norm2() const { return std::sqrt(SquaredNorm()); }

double DenseVector::SquaredNorm() const {
  // Deliberately not the dense_dot kernel: this has always been a
  // single running sum and changing the association would move every
  // L2 regularizer value.
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return sum;
}

double DenseVector::Norm1() const {
  double sum = 0.0;
  for (double v : values_) sum += std::fabs(v);
  return sum;
}

size_t DenseVector::CountNonZeros(double tolerance) const {
  size_t count = 0;
  for (double v : values_) {
    if (std::fabs(v) > tolerance) ++count;
  }
  return count;
}

DenseVector Average(const std::vector<DenseVector>& vectors) {
  MLLIBSTAR_CHECK(!vectors.empty());
  DenseVector result(vectors[0].dim());
  for (const DenseVector& v : vectors) result.AddScaled(v, 1.0);
  result.Scale(1.0 / static_cast<double>(vectors.size()));
  return result;
}

TouchedBuffer::TouchedBuffer(size_t dim, size_t blocks)
    : buf_(dim), blocks_(blocks), block_dim_(blocks == 0 ? 0 : dim / blocks) {
  MLLIBSTAR_CHECK_GT(blocks, 0u);
  MLLIBSTAR_CHECK_EQ(dim % blocks, 0u);
}

void TouchedBuffer::Touch(const FeatureIndex* indices, size_t nnz) {
  if (all_touched_) return;
  touched_.insert(touched_.end(), indices, indices + nnz);
  // Past the threshold the flush sweeps densely anyway; stop listing.
  if (touched_.size() * blocks_ * kSparseFactor > buf_.dim()) TouchAll();
}

void TouchedBuffer::TouchAll() {
  all_touched_ = true;
  touched_.clear();
}

void TouchedBuffer::FlushScaled(double alpha, DenseVector* dst) {
  Flush(alpha, std::signbit(alpha) && std::isfinite(alpha), dst);
}

void TouchedBuffer::FlushSum(DenseVector* sum) { Flush(1.0, true, sum); }

void TouchedBuffer::Flush(double alpha, bool skip_is_exact,
                          DenseVector* dst) {
  MLLIBSTAR_CHECK_EQ(dst->dim(), buf_.dim());
  if (all_touched_ || !skip_is_exact) {
    dst->AddScaled(buf_, alpha);
    buf_.SetZero();
  } else {
    // Per coordinate the same w + (alpha * x) as the dense_axpy kernel
    // (this TU is built without FMA contraction).
    double* d = dst->data();
    double* b = buf_.data();
    for (size_t base = 0; base < buf_.dim(); base += block_dim_) {
      for (FeatureIndex j : touched_) {
        d[base + j] += alpha * b[base + j];
        b[base + j] = 0.0;
      }
    }
  }
  touched_.clear();
  all_touched_ = false;
}

}  // namespace mllibstar
