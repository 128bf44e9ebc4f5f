#ifndef MLLIBSTAR_CORE_REGULARIZER_H_
#define MLLIBSTAR_CORE_REGULARIZER_H_

#include <string>

#include "core/vector.h"

namespace mllibstar {

/// Kinds of regularization penalties Ω(w) in the GLM objective
/// f(w, X) = l(w, X) + Ω(w) (paper Equation 1).
enum class RegularizerKind {
  kNone,  ///< Ω(w) = 0
  kL2,    ///< Ω(w) = (λ/2) ||w||²
};

/// Regularization penalty with the operations the solvers need: the
/// value, the GD step and the gradient. The L2 gradient is dense (λ·w
/// touches every coordinate), which motivates the paper's lazy-update
/// discussion. kNone ignores the λ it is given: every operation is a
/// no-op and lambda() is 0.
class Regularizer {
 public:
  Regularizer(RegularizerKind kind, double lambda);

  /// Ω(w).
  double Value(const DenseVector& w) const;

  /// In-place step w -= lr * ∇Ω(w).
  void ApplyGradientStep(DenseVector* w, double lr) const;

  /// grad += ∇Ω(w). Used by the L-BFGS oracle, which needs the explicit
  /// regularizer gradient.
  void AddGradient(const DenseVector& w, DenseVector* grad) const;

  /// Regularization strength λ (0 for kNone).
  double lambda() const { return lambda_; }
  RegularizerKind kind() const { return kind_; }
  std::string name() const;

 private:
  RegularizerKind kind_;
  double lambda_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_REGULARIZER_H_
