#ifndef MLLIBSTAR_CORE_LOSS_H_
#define MLLIBSTAR_CORE_LOSS_H_

#include <memory>
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
/// GLM gradients factor as dl/dm(m, y) * x, so implementations expose
/// the scalar value and its derivative with respect to the margin;
/// callers scale the feature vector by the derivative.
class Loss {
 public:
  virtual ~Loss() = default;

  /// l(margin, label). For classification losses labels are ±1.
  virtual double Value(double margin, double label) const = 0;

  /// dl/dmargin at (margin, label). For hinge this is a subgradient.
  virtual double Derivative(double margin, double label) const = 0;

  virtual LossKind kind() const = 0;
  virtual std::string name() const = 0;
};

/// Creates the loss implementation for `kind`.
std::unique_ptr<Loss> MakeLoss(LossKind kind);

/// Parses "logistic" / "hinge" / "squared" (used by bench CLIs). An
/// unknown name is an InvalidArgument that names it and the accepted
/// ones.
Result<LossKind> LossKindFromName(const std::string& name);

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_LOSS_H_
