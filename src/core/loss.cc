#include "core/loss.h"

#include <cmath>

namespace mllibstar {
namespace {

class LogisticLoss final : public Loss {
 public:
  double Value(double margin, double label) const override {
    const double z = label * margin;
    // Numerically stable log(1 + exp(-z)).
    if (z > 0) return std::log1p(std::exp(-z));
    return -z + std::log1p(std::exp(z));
  }

  double Derivative(double margin, double label) const override {
    const double z = label * margin;
    // -y * sigmoid(-z), computed stably.
    if (z > 0) {
      const double e = std::exp(-z);
      return -label * e / (1.0 + e);
    }
    return -label / (1.0 + std::exp(z));
  }

  LossKind kind() const override { return LossKind::kLogistic; }
  std::string name() const override { return "logistic"; }
};

class HingeLoss final : public Loss {
 public:
  double Value(double margin, double label) const override {
    const double z = 1.0 - label * margin;
    return z > 0 ? z : 0.0;
  }

  double Derivative(double margin, double label) const override {
    return (label * margin < 1.0) ? -label : 0.0;
  }

  LossKind kind() const override { return LossKind::kHinge; }
  std::string name() const override { return "hinge"; }
};

class SquaredLoss final : public Loss {
 public:
  double Value(double margin, double label) const override {
    const double d = margin - label;
    return 0.5 * d * d;
  }

  double Derivative(double margin, double label) const override {
    return margin - label;
  }

  LossKind kind() const override { return LossKind::kSquared; }
  std::string name() const override { return "squared"; }
};

}  // namespace

std::unique_ptr<Loss> MakeLoss(LossKind kind) {
  switch (kind) {
    case LossKind::kLogistic:
      return std::make_unique<LogisticLoss>();
    case LossKind::kHinge:
      return std::make_unique<HingeLoss>();
    case LossKind::kSquared:
      return std::make_unique<SquaredLoss>();
  }
  return std::make_unique<HingeLoss>();
}

Result<LossKind> LossKindFromName(const std::string& name) {
  if (name == "logistic") return LossKind::kLogistic;
  if (name == "hinge") return LossKind::kHinge;
  if (name == "squared") return LossKind::kSquared;
  return Status::InvalidArgument("unknown loss '" + name +
                                 "'; expected logistic|hinge|squared");
}

}  // namespace mllibstar
