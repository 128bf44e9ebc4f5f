#ifndef MLLIBSTAR_CORE_LOSS_H_
#define MLLIBSTAR_CORE_LOSS_H_

#include <cmath>
#include <string>

#include "common/status.h"

namespace mllibstar {

/// Kinds of point losses supported for GLM training.
enum class LossKind {
  kLogistic,  ///< log(1 + exp(-y * m)) — logistic regression
  kHinge,     ///< max(0, 1 - y * m) — linear SVM
  kSquared,   ///< (m - y)^2 / 2 — linear regression
};

/// A convex point loss l(m, y) of the margin m = w·x and label y.
///
/// GLM gradients factor as dl/dm(m, y) * x, so the loss exposes the
/// scalar value and its derivative with respect to the margin; callers
/// scale the feature vector by the derivative. One concrete class:
/// Value and Derivative are inline switches on the kind, so the kernel
/// loops that call them once per row make no virtual call.
class Loss {
 public:
  explicit Loss(LossKind kind) : kind_(kind) {}

  /// l(margin, label). For classification losses labels are ±1.
  double Value(double margin, double label) const {
    switch (kind_) {
      case LossKind::kLogistic: {
        const double z = label * margin;
        // Numerically stable log(1 + exp(-z)).
        if (z > 0) return std::log1p(std::exp(-z));
        return -z + std::log1p(std::exp(z));
      }
      case LossKind::kSquared: {
        const double d = margin - label;
        return 0.5 * d * d;
      }
      case LossKind::kHinge:
        break;
    }
    const double z = 1.0 - label * margin;
    return z > 0 ? z : 0.0;
  }

  /// dl/dmargin at (margin, label). For hinge this is a subgradient.
  double Derivative(double margin, double label) const {
    switch (kind_) {
      case LossKind::kLogistic: {
        const double z = label * margin;
        // -y * sigmoid(-z), computed stably.
        if (z > 0) {
          const double e = std::exp(-z);
          return -label * e / (1.0 + e);
        }
        return -label / (1.0 + std::exp(z));
      }
      case LossKind::kSquared:
        return margin - label;
      case LossKind::kHinge:
        break;
    }
    return (label * margin < 1.0) ? -label : 0.0;
  }

  LossKind kind() const { return kind_; }
  std::string name() const;

 private:
  LossKind kind_;
};

/// Parses "logistic" / "hinge" / "squared" (used by bench CLIs). An
/// unknown name is an InvalidArgument that names it and the accepted
/// ones.
Result<LossKind> LossKindFromName(const std::string& name);

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_LOSS_H_
