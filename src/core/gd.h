#ifndef MLLIBSTAR_CORE_GD_H_
#define MLLIBSTAR_CORE_GD_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/vector.h"

namespace mllibstar {

/// Work accounting for one local computation, consumed by the
/// simulator's compute cost model (time ∝ nnz_processed / node speed).
struct ComputeStats {
  uint64_t nnz_processed = 0;  ///< sparse coordinates touched
  uint64_t model_updates = 0;  ///< number of updates applied to a model

  ComputeStats& operator+=(const ComputeStats& other) {
    nnz_processed += other.nnz_processed;
    model_updates += other.model_updates;
    return *this;
  }
};

/// Samples `batch_size` indices from [0, n) without replacement when
/// batch_size < n (otherwise returns all indices, i.e. full GD).
/// Batches of at least n/4 take a partial Fisher–Yates over an index
/// pool. Smaller ones use Floyd's algorithm: exactly `batch_size`
/// draws, with the picks marked in a bitmap of n bits (n/64 words,
/// zeroed once per call and freed on return). The rows, their order
/// and the Rng's state afterwards are those of the hash-set Floyd it
/// replaced (`SampleBatchTest.DrawsArePinnedAtWorkloadShapes`).
std::vector<size_t> SampleBatch(size_t n, size_t batch_size, Rng* rng);

/// Dense weight vector stored as scale · v so that the multiplicative
/// L2 shrinkage w ← (1 − ηλ)·w costs O(1) instead of O(d) per update
/// (Bottou's lazy trick, paper §IV-B1). Sparse gradient updates divide
/// by the scale; the representation re-materializes when the scale
/// underflows.
class ScaledVector {
 public:
  explicit ScaledVector(DenseVector initial)
      : v_(std::move(initial)), scale_(1.0) {}

  size_t dim() const { return v_.dim(); }
  double scale() const { return scale_; }

  /// (scale · v) · x.
  double Dot(const FeatureIndex* indices, const double* values,
             size_t nnz) const {
    return scale_ * v_.Dot(indices, values, nnz);
  }

  /// w ← factor · w in O(1).
  void Shrink(double factor) {
    MLLIBSTAR_CHECK_GT(factor, 0.0);
    scale_ *= factor;
    if (scale_ < 1e-9) Materialize();
  }

  /// w ← w + alpha · x (sparse, O(nnz(x))).
  void AddScaled(const FeatureIndex* indices, const double* values,
                 size_t nnz, double alpha) {
    v_.AddScaled(indices, values, nnz, alpha / scale_);
  }

  /// Materializes the plain dense weights (O(d)).
  DenseVector ToDense() const;

 private:
  void Materialize();

  DenseVector v_;
  double scale_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_GD_H_
