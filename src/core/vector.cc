#include "core/vector.h"

#include <cmath>

#include "common/logging.h"
#include "core/csr_block.h"

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
// of this file moved verbatim, and the vector tiers reproduce its
// arithmetic bit-for-bit, so which tier runs can never change a
// simulated result — only how fast it is produced.

void DenseVector::AddScaled(const SparseVector& x, double alpha) {
  AddScaled(x.indices.data(), x.values.data(), x.nnz(), alpha);
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

TouchedBuffer::TouchedBuffer(size_t dim) : buf_(dim) {}

void TouchedBuffer::TouchRows(const CsrBlock& block,
                              const std::vector<size_t>& rows) {
  if (all_touched_) return;
  size_t listed = touched_.size();
  for (size_t i : rows) listed += block.row_nnz(i);
  // Past the threshold the flush sweeps densely anyway; list nothing.
  if (listed * kSparseFactor > buf_.dim()) {
    TouchAll();
    return;
  }
  for (size_t i : rows) {
    const FeatureIndex* indices = block.row_indices(i);
    touched_.insert(touched_.end(), indices, indices + block.row_nnz(i));
  }
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
    for (FeatureIndex j : touched_) {
      d[j] += alpha * b[j];
      b[j] = 0.0;
    }
  }
  touched_.clear();
  all_touched_ = false;
}

}  // namespace mllibstar
