#include "core/model.h"

namespace mllibstar {

double MeanLoss(const CsrBlock& rows, const Loss& loss, const DenseVector& w) {
  const size_t n = rows.rows();
  if (n == 0) return 0.0;
  double sum = 0.0;
  ForEachMargin(rows, w, [&](size_t i, double margin) {
    sum += loss.Value(margin, rows.label(i));
  });
  return sum / static_cast<double>(n);
}

double Objective(const CsrBlock& rows, const Loss& loss,
                 const Regularizer& reg, const DenseVector& w) {
  return MeanLoss(rows, loss, w) + reg.Value(w);
}

double Accuracy(const CsrBlock& rows, const DenseVector& w) {
  const size_t n = rows.rows();
  if (n == 0) return 0.0;
  size_t correct = 0;
  ForEachMargin(rows, w, [&](size_t i, double margin) {
    if ((margin >= 0.0 ? 1.0 : -1.0) == rows.label(i)) ++correct;
  });
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace mllibstar
