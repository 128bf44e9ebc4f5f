#include "core/model.h"

namespace mllibstar {

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
