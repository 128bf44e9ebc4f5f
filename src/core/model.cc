#include "core/model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mllibstar {

MulticlassGlmModel::MulticlassGlmModel(size_t num_classes,
                                       size_t num_features, DenseVector flat)
    : num_classes_(num_classes),
      num_features_(num_features),
      flat_(std::move(flat)) {
  MLLIBSTAR_CHECK_EQ(flat_.dim(), num_classes_ * num_features_);
}

std::vector<double> MulticlassGlmModel::Margins(
    const SparseVector& features) const {
  std::vector<double> margins(num_classes_);
  for (size_t k = 0; k < num_classes_; ++k) {
    margins[k] = flat_.Dot(features.indices.data(), features.values.data(),
                           features.nnz(), k * num_features_);
  }
  return margins;
}

size_t MulticlassGlmModel::PredictClass(const SparseVector& features) const {
  const std::vector<double> margins = Margins(features);
  size_t best = 0;
  for (size_t k = 1; k < margins.size(); ++k) {
    if (margins[k] > margins[best]) best = k;
  }
  return best;
}

std::vector<double> MulticlassGlmModel::ClassProbabilities(
    const SparseVector& features) const {
  std::vector<double> p = Margins(features);
  const double m = *std::max_element(p.begin(), p.end());
  double sum = 0.0;
  for (double& v : p) {
    v = std::exp(v - m);
    sum += v;
  }
  for (double& v : p) v /= sum;
  return p;
}

double LogSumExp(const double* margins, size_t count) {
  const double m = *std::max_element(margins, margins + count);
  double sum = 0.0;
  for (size_t k = 0; k < count; ++k) sum += std::exp(margins[k] - m);
  return std::log(sum) + m;
}

double SoftmaxCrossEntropy(const double* margins, size_t count,
                           size_t label) {
  return LogSumExp(margins, count) - margins[label];
}

double MeanSoftmaxLoss(const std::vector<DataPoint>& points,
                       size_t num_classes, size_t num_features,
                       const DenseVector& flat) {
  if (points.empty()) return 0.0;
  MLLIBSTAR_CHECK_EQ(flat.dim(), num_classes * num_features);
  std::vector<double> margins(num_classes);
  double sum = 0.0;
  for (const DataPoint& p : points) {
    for (size_t k = 0; k < num_classes; ++k) {
      margins[k] = flat.Dot(p.features.indices.data(),
                            p.features.values.data(), p.features.nnz(),
                            k * num_features);
    }
    const size_t label = static_cast<size_t>(p.label);
    MLLIBSTAR_CHECK_LT(label, num_classes);
    sum += SoftmaxCrossEntropy(margins.data(), num_classes, label);
  }
  return sum / static_cast<double>(points.size());
}

double MulticlassAccuracy(const std::vector<DataPoint>& points,
                          const MulticlassGlmModel& model) {
  if (points.empty()) return 0.0;
  size_t correct = 0;
  for (const DataPoint& p : points) {
    if (model.PredictClass(p) == static_cast<size_t>(p.label)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(points.size());
}

double MeanLoss(const std::vector<DataPoint>& points, const Loss& loss,
                const DenseVector& w) {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  for (const DataPoint& p : points) {
    sum += loss.Value(w.Dot(p.features), p.label);
  }
  return sum / static_cast<double>(points.size());
}

double Objective(const std::vector<DataPoint>& points, const Loss& loss,
                 const Regularizer& reg, const DenseVector& w) {
  return MeanLoss(points, loss, w) + reg.Value(w);
}

double Accuracy(const std::vector<DataPoint>& points, const DenseVector& w) {
  if (points.empty()) return 0.0;
  size_t correct = 0;
  for (const DataPoint& p : points) {
    const double predicted = w.Dot(p.features) >= 0.0 ? 1.0 : -1.0;
    if (predicted == p.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(points.size());
}

}  // namespace mllibstar
