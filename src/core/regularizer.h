#ifndef MLLIBSTAR_CORE_REGULARIZER_H_
#define MLLIBSTAR_CORE_REGULARIZER_H_

#include <memory>
#include <string>

#include "core/vector.h"

namespace mllibstar {

/// Kinds of regularization penalties Ω(w) in the GLM objective
/// f(w, X) = l(w, X) + Ω(w) (paper Equation 1).
enum class RegularizerKind {
  kNone,  ///< Ω(w) = 0
  kL2,    ///< Ω(w) = (λ/2) ||w||²
  kL1,    ///< Ω(w) = λ ||w||₁
};

/// Regularization penalty with the operations GD needs: the value and
/// the (sub)gradient step. The L2 gradient is dense (λ·w touches every
/// coordinate), which motivates the paper's lazy-update discussion.
class Regularizer {
 public:
  virtual ~Regularizer() = default;

  /// Ω(w).
  virtual double Value(const DenseVector& w) const = 0;

  /// In-place step w -= lr * ∇Ω(w) (subgradient for L1).
  virtual void ApplyGradientStep(DenseVector* w, double lr) const = 0;

  /// grad += ∇Ω(w) (subgradient for L1). Used by batch solvers like
  /// L-BFGS that need the explicit regularizer gradient.
  virtual void AddGradient(const DenseVector& w, DenseVector* grad) const = 0;

  /// Regularization strength λ (0 for kNone).
  virtual double lambda() const = 0;

  /// Strength of the non-smooth ‖w‖₁ term: λ for kL1, 0 otherwise.
  /// When positive, batch solvers must hand this term to OWL-QN
  /// instead of differentiating through it.
  virtual double l1_lambda() const { return 0.0; }

  /// Value of the smooth (differentiable) part of Ω only — excludes
  /// the ‖w‖₁ term that OWL-QN owns. Equals Value() when l1_lambda()
  /// is 0.
  virtual double SmoothValue(const DenseVector& w) const { return Value(w); }

  /// grad += gradient of the smooth part only.
  virtual void AddSmoothGradient(const DenseVector& w,
                                 DenseVector* grad) const {
    AddGradient(w, grad);
  }

  virtual RegularizerKind kind() const = 0;
  virtual std::string name() const = 0;
};

/// Creates the regularizer for `kind` with strength `lambda`.
/// For kNone, `lambda` is ignored.
std::unique_ptr<Regularizer> MakeRegularizer(RegularizerKind kind,
                                             double lambda);

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_REGULARIZER_H_
