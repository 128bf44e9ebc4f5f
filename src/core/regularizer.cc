#include "core/regularizer.h"

namespace mllibstar {

Regularizer::Regularizer(RegularizerKind kind, double lambda)
    : kind_(kind), lambda_(kind == RegularizerKind::kNone ? 0.0 : lambda) {}

double Regularizer::Value(const DenseVector& w) const {
  if (kind_ == RegularizerKind::kNone) return 0.0;
  return 0.5 * lambda_ * w.SquaredNorm();
}

void Regularizer::ApplyGradientStep(DenseVector* w, double lr) const {
  if (kind_ == RegularizerKind::kNone) return;
  // w -= lr * lambda * w, i.e. multiplicative shrinkage.
  w->Scale(1.0 - lr * lambda_);
}

void Regularizer::AddGradient(const DenseVector& w, DenseVector* grad) const {
  if (kind_ == RegularizerKind::kNone) return;
  grad->AddScaled(w, lambda_);
}

std::string Regularizer::name() const {
  return kind_ == RegularizerKind::kNone ? "none" : "l2";
}

}  // namespace mllibstar
