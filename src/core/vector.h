#ifndef MLLIBSTAR_CORE_VECTOR_H_
#define MLLIBSTAR_CORE_VECTOR_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace mllibstar {

/// Index type for feature dimensions. 32 bits covers the paper's
/// largest model (54.7M features) with room to spare.
using FeatureIndex = uint32_t;

/// A sparse vector in coordinate format with strictly increasing
/// indices. Used for data points and sparse gradients.
struct SparseVector {
  std::vector<FeatureIndex> indices;
  std::vector<double> values;

  size_t nnz() const { return indices.size(); }

  /// Appends an entry; caller must append in increasing index order.
  void Push(FeatureIndex index, double value) {
    indices.push_back(index);
    values.push_back(value);
  }

  /// True if indices are strictly increasing (the class invariant).
  bool IsSorted() const;

  /// Sum of squared values.
  double SquaredNorm() const;
};

/// A dense vector of doubles with the handful of BLAS-1 operations the
/// training algorithms need. Sized once; all operations preserve size.
class DenseVector {
 public:
  DenseVector() = default;
  /// Creates a zero vector of the given dimension.
  explicit DenseVector(size_t dim) : values_(dim, 0.0) {}
  /// Wraps existing values.
  explicit DenseVector(std::vector<double> values)
      : values_(std::move(values)) {}

  DenseVector(const DenseVector&) = default;
  DenseVector& operator=(const DenseVector&) = default;
  DenseVector(DenseVector&&) = default;
  DenseVector& operator=(DenseVector&&) = default;

  size_t dim() const { return values_.size(); }
  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }
  const std::vector<double>& values() const { return values_; }
  double* data() { return values_.data(); }
  const double* data() const { return values_.data(); }

  /// Sets every component to zero.
  void SetZero();

  /// this += alpha * x (sparse axpy; x indices must be < dim()).
  void AddScaled(const SparseVector& x, double alpha);

  /// Sparse axpy over a raw span (a CsrBlock row view). The
  /// SparseVector overload delegates here, so both layouts perform the
  /// identical arithmetic. Routed through the runtime-dispatched SIMD
  /// kernel table (core/simd) — every dispatch level is bit-identical
  /// for f64 operands.
  void AddScaled(const FeatureIndex* indices, const double* values,
                 size_t nnz, double alpha);

  /// Mixed-precision sparse axpy: f32 values widened per element, f64
  /// destination and arithmetic (the CsrBlock f32 compute path).
  void AddScaled(const FeatureIndex* indices, const float* values,
                 size_t nnz, double alpha);

  /// Sparse axpy into the block starting at `offset`: this[offset + j]
  /// += alpha * x[j]. A flattened K-class model stores class k's
  /// weights at offset k·d; this lets the softmax kernels update one
  /// class block with the same arithmetic as the offset-0 overload
  /// (offset + indices[i] must be < dim()).
  void AddScaled(const FeatureIndex* indices, const double* values,
                 size_t nnz, double alpha, size_t offset);

  /// Mixed-precision class-block sparse axpy.
  void AddScaled(const FeatureIndex* indices, const float* values,
                 size_t nnz, double alpha, size_t offset);

  /// this += alpha * x. Dimensions must match.
  void AddScaled(const DenseVector& x, double alpha);

  /// this *= alpha.
  void Scale(double alpha);

  /// Dot product with a sparse vector (indices must be < dim()).
  double Dot(const SparseVector& x) const;

  /// Sparse dot over a raw span (a CsrBlock row view). The
  /// SparseVector overload delegates here, so both layouts produce
  /// bit-identical sums. Routed through the SIMD kernel table.
  double Dot(const FeatureIndex* indices, const double* values,
             size_t nnz) const;

  /// Mixed-precision sparse dot: f32 values, f64 model reads and
  /// accumulators.
  double Dot(const FeatureIndex* indices, const float* values,
             size_t nnz) const;

  /// Sparse dot against the block starting at `offset`:
  /// Σ this[offset + indices[i]] * values[i]. Same accumulator
  /// structure as the offset-0 overload, so margins are bit-identical
  /// whichever class block they read.
  double Dot(const FeatureIndex* indices, const double* values, size_t nnz,
             size_t offset) const;

  /// Mixed-precision class-block sparse dot.
  double Dot(const FeatureIndex* indices, const float* values, size_t nnz,
             size_t offset) const;

  /// Dot product with a dense vector of the same dimension.
  double Dot(const DenseVector& x) const;

  /// Euclidean norm.
  double Norm2() const;

  /// Sum of squared components.
  double SquaredNorm() const;

  /// Sum of absolute values.
  double Norm1() const;

  /// Number of entries with |value| > tolerance (for sparsity stats).
  size_t CountNonZeros(double tolerance = 0.0) const;

 private:
  std::vector<double> values_;
};

/// Elementwise average of `vectors` (all same dimension, non-empty).
DenseVector Average(const std::vector<DenseVector>& vectors);

/// A gradient buffer that is all +0.0 between uses, plus the list of
/// coordinates the current batch may have written (its rows' feature
/// indices). A flush adds α·buffer into a destination and re-zeros the
/// buffer. When the listed coordinates are few against the dimension it
/// sweeps only those; otherwise it sweeps the whole vector. Either way the
/// result is bit-identical to dst->AddScaled(vector(), α) followed by
/// SetZero(), under the signed-zero conditions each flush states
/// (DESIGN §16).
class TouchedBuffer {
 public:
  /// Sweep only the listed coordinates when listed × kSparseFactor ≤
  /// dim. Scattered read-modify-writes lose to one streaming pass as
  /// the list grows: kernels_bench's flush_density case
  /// (results/BENCH_kernels.json) puts the break-even between
  /// listed/dim = 1/4, where the listed sweep still wins, and 1/2,
  /// where the dense sweep does, at the kddb, kdd12 and WX model sizes.
  static constexpr size_t kSparseFactor = 4;

  /// A +0.0 buffer of `dim` coordinates laid out as `blocks` equal
  /// class blocks (1 for a binary model, K for a flattened K-class
  /// softmax model): a listed feature index j stands for coordinate
  /// b·(dim/blocks) + j in every block b.
  explicit TouchedBuffer(size_t dim, size_t blocks = 1);

  const DenseVector& vector() const { return buf_; }

  /// Write access for kernels that write listed coordinates only. Any
  /// other write must be preceded by TouchAll().
  DenseVector* mutable_vector() { return &buf_; }

  /// Lists `nnz` feature indices as possibly written. Duplicates are
  /// harmless: each visit of a flush re-zeros its coordinate.
  void Touch(const FeatureIndex* indices, size_t nnz);

  /// Marks every coordinate as possibly written; the next flush sweeps
  /// the whole vector.
  void TouchAll();

  /// *dst += alpha · buffer, then re-zeros the buffer. Skipping an
  /// unlisted coordinate is exact when alpha is finite with its sign
  /// bit set (α ≤ −0): the dense sweep would add alpha · (+0.0) = −0.0
  /// there, which leaves every value unchanged. Any other alpha takes
  /// the dense sweep.
  void FlushScaled(double alpha, DenseVector* dst);

  /// *sum += buffer, then re-zeros the buffer. `sum` must never hold
  /// −0.0, which is true of a sum that started at +0.0 and was only
  /// added to (round-to-nearest addition yields −0.0 only from two
  /// −0.0 operands); adding +0.0 to it at an unlisted coordinate then
  /// changes nothing.
  void FlushSum(DenseVector* sum);

 private:
  void Flush(double alpha, bool skip_is_exact, DenseVector* dst);

  DenseVector buf_;
  size_t blocks_;
  size_t block_dim_;
  std::vector<FeatureIndex> touched_;
  bool all_touched_ = false;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_VECTOR_H_
