#include "core/model.h"

#include "common/logging.h"

namespace mllibstar {

MulticlassGlmModel::MulticlassGlmModel(size_t num_classes,
                                       size_t num_features, DenseVector flat)
    : num_classes_(num_classes),
      num_features_(num_features),
      flat_(std::move(flat)) {
  MLLIBSTAR_CHECK_EQ(flat_.dim(), num_classes_ * num_features_);
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
