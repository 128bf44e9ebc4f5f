#include "core/regularizer.h"

#include <cmath>

namespace mllibstar {
namespace {

class NoRegularizer final : public Regularizer {
 public:
  double Value(const DenseVector&) const override { return 0.0; }
  void ApplyGradientStep(DenseVector*, double) const override {}
  void AddGradient(const DenseVector&, DenseVector*) const override {}
  double lambda() const override { return 0.0; }
  RegularizerKind kind() const override { return RegularizerKind::kNone; }
  std::string name() const override { return "none"; }
};

class L2Regularizer final : public Regularizer {
 public:
  explicit L2Regularizer(double lambda) : lambda_(lambda) {}

  double Value(const DenseVector& w) const override {
    return 0.5 * lambda_ * w.SquaredNorm();
  }

  void ApplyGradientStep(DenseVector* w, double lr) const override {
    // w -= lr * lambda * w, i.e. multiplicative shrinkage.
    w->Scale(1.0 - lr * lambda_);
  }

  void AddGradient(const DenseVector& w, DenseVector* grad) const override {
    grad->AddScaled(w, lambda_);
  }

  double lambda() const override { return lambda_; }
  RegularizerKind kind() const override { return RegularizerKind::kL2; }
  std::string name() const override { return "l2"; }

 private:
  double lambda_;
};

class L1Regularizer final : public Regularizer {
 public:
  explicit L1Regularizer(double lambda) : lambda_(lambda) {}

  double Value(const DenseVector& w) const override {
    return lambda_ * w.Norm1();
  }

  void ApplyGradientStep(DenseVector* w, double lr) const override {
    // Subgradient step with clipping at zero (soft-threshold style) so
    // the step never flips a weight's sign purely from the penalty.
    const double shift = lr * lambda_;
    const size_t n = w->dim();
    for (size_t i = 0; i < n; ++i) {
      double& v = (*w)[i];
      if (v > shift) {
        v -= shift;
      } else if (v < -shift) {
        v += shift;
      } else {
        v = 0.0;
      }
    }
  }

  void AddGradient(const DenseVector& w, DenseVector* grad) const override {
    for (size_t i = 0; i < w.dim(); ++i) {
      if (w[i] > 0) {
        (*grad)[i] += lambda_;
      } else if (w[i] < 0) {
        (*grad)[i] -= lambda_;
      }
    }
  }

  double lambda() const override { return lambda_; }
  double l1_lambda() const override { return lambda_; }
  double SmoothValue(const DenseVector&) const override { return 0.0; }
  void AddSmoothGradient(const DenseVector&,
                         DenseVector*) const override {}
  RegularizerKind kind() const override { return RegularizerKind::kL1; }
  std::string name() const override { return "l1"; }

 private:
  double lambda_;
};

}  // namespace

std::unique_ptr<Regularizer> MakeRegularizer(RegularizerKind kind,
                                             double lambda) {
  switch (kind) {
    case RegularizerKind::kNone:
      return std::make_unique<NoRegularizer>();
    case RegularizerKind::kL2:
      return std::make_unique<L2Regularizer>(lambda);
    case RegularizerKind::kL1:
      return std::make_unique<L1Regularizer>(lambda);
  }
  return std::make_unique<NoRegularizer>();
}

}  // namespace mllibstar
