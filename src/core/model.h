#ifndef MLLIBSTAR_CORE_MODEL_H_
#define MLLIBSTAR_CORE_MODEL_H_

#include <vector>

#include "core/datapoint.h"
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

/// The K-class weight storage of the model_io v2 format: K weight
/// vectors flattened into one DenseVector of dimension K·d, class k
/// occupying [k·d, (k+1)·d). A v1 (binary) file loads as K = 1.
class MulticlassGlmModel {
 public:
  MulticlassGlmModel() = default;

  /// Zero-initialized K-class model over d features.
  MulticlassGlmModel(size_t num_classes, size_t num_features)
      : num_classes_(num_classes),
        num_features_(num_features),
        flat_(num_classes * num_features) {}

  /// Wraps flattened weights; flat.dim() must equal K·d.
  MulticlassGlmModel(size_t num_classes, size_t num_features,
                     DenseVector flat);

  size_t num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }
  const DenseVector& flat_weights() const { return flat_; }
  DenseVector* mutable_flat_weights() { return &flat_; }

  /// Weight of feature j for class k.
  double weight(size_t k, size_t j) const {
    return flat_[k * num_features_ + j];
  }

 private:
  size_t num_classes_ = 0;
  size_t num_features_ = 0;
  DenseVector flat_;
};

/// Mean point loss (1/n) Σ l(w·xᵢ, yᵢ) over `points`. Returns 0 for an
/// empty range.
double MeanLoss(const std::vector<DataPoint>& points, const Loss& loss,
                const DenseVector& w);

/// Full objective f(w, X) = mean loss + Ω(w) (paper Equation 1).
double Objective(const std::vector<DataPoint>& points, const Loss& loss,
                 const Regularizer& reg, const DenseVector& w);

/// Fraction of points whose predicted class matches the label.
double Accuracy(const std::vector<DataPoint>& points, const DenseVector& w);

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_MODEL_H_
