#ifndef MLLIBSTAR_CORE_MODEL_H_
#define MLLIBSTAR_CORE_MODEL_H_

#include "core/csr_block.h"
#include "core/loss.h"
#include "core/regularizer.h"
#include "core/vector.h"

namespace mllibstar {

/// A trained (or in-training) generalized linear model: a weight
/// vector w scoring examples by the margin w·x.
class GlmModel {
 public:
  GlmModel() = default;
  /// Zero-initialized model of the given dimensionality.
  explicit GlmModel(size_t dim) : weights_(dim) {}
  explicit GlmModel(DenseVector weights) : weights_(std::move(weights)) {}

  size_t dim() const { return weights_.dim(); }
  const DenseVector& weights() const { return weights_; }
  DenseVector* mutable_weights() { return &weights_; }

 private:
  DenseVector weights_;
};

/// Mean point loss (1/n) Σ l(w·xᵢ, yᵢ) over the rows of `rows`, summed
/// in row order, with the margins taken a chunk at a time by the block
/// kernel (ForEachMargin). Returns 0 for no rows. Every evaluated
/// objective in the library is this walk (DESIGN §17).
double MeanLoss(const CsrBlock& rows, const Loss& loss, const DenseVector& w);

/// Full objective f(w, X) = mean loss + Ω(w) (paper Equation 1).
double Objective(const CsrBlock& rows, const Loss& loss,
                 const Regularizer& reg, const DenseVector& w);

/// Fraction of rows whose predicted class matches the label.
double Accuracy(const CsrBlock& rows, const DenseVector& w);

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_MODEL_H_
