#ifndef MLLIBSTAR_CORE_LBFGS_H_
#define MLLIBSTAR_CORE_LBFGS_H_

#include <functional>
#include <vector>

#include "core/vector.h"

namespace mllibstar {

/// Options for the limited-memory BFGS solver.
struct LbfgsOptions {
  size_t history = 10;          ///< stored (s, y) pairs
  int max_iterations = 100;
  double gradient_tolerance = 1e-8;   ///< stop when ||g||_inf below this
  double objective_tolerance = 1e-10; ///< stop on relative improvement
  double armijo_c = 1e-4;       ///< sufficient-decrease constant
  double backtrack_factor = 0.5;
  int max_line_search_steps = 20;
};

/// Outcome of a minimization run.
struct LbfgsResult {
  DenseVector minimizer;
  double objective = 0.0;
  int iterations = 0;
  int function_evaluations = 0;
  bool converged = false;
};

/// The complete resumable state of an L-BFGS run after some number of
/// iterations: the iterate, its cached evaluation, and the correction
/// history. MinimizeFrom continues from such a state exactly where an
/// interrupted run left off — the subsequent iterates are bit-identical
/// to the uninterrupted run's (checkpoint/resume relies on this).
struct LbfgsState {
  DenseVector x;
  DenseVector gradient;
  double objective = 0.0;
  int iteration = 0;       ///< next iteration index
  bool evaluated = false;  ///< gradient/objective valid for x
  std::vector<DenseVector> s_history;
  std::vector<DenseVector> y_history;
  std::vector<double> rho_history;  ///< 1 / (y_i . s_i)
};

/// Limited-memory BFGS with the standard two-loop recursion and an
/// Armijo backtracking line search (Liu & Nocedal [27] — the
/// second-order method the paper names as spark.ml's optimizer and
/// flags as future work for the MLlib* techniques).
///
/// The objective is supplied as an oracle computing f(w) and ∇f(w)
/// together; distributed callers wire the oracle to a cluster pass so
/// that every evaluation is charged simulated time.
class LbfgsSolver {
 public:
  /// f(w) -> objective; writes the gradient into *gradient (same dim).
  using Oracle =
      std::function<double(const DenseVector& w, DenseVector* gradient)>;

  explicit LbfgsSolver(LbfgsOptions options) : options_(options) {}

  /// Called after every accepted iteration with the solver's full
  /// resumable state (checkpoint hooks).
  using IterationObserver = std::function<void(const LbfgsState&)>;

  /// Minimizes the oracle starting from `initial`. Requires a smooth
  /// objective (use logistic or squared loss, not hinge).
  LbfgsResult Minimize(const Oracle& oracle, DenseVector initial) const;

  /// Continues minimization from `state` (a fresh state with only `x`
  /// set behaves exactly like Minimize). `observer`, when non-null,
  /// sees the state after each accepted iteration. CHECKs that the
  /// state is one this solver could have produced: s, y and rho of
  /// equal length, at most `history`, and every vector (the gradient
  /// once evaluated) of x's dimension.
  LbfgsResult MinimizeFrom(const Oracle& oracle, LbfgsState state,
                           const IterationObserver& observer = nullptr) const;

 private:
  LbfgsOptions options_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_LBFGS_H_
