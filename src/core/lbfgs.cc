#include "core/lbfgs.h"

#include <cmath>

#include "common/logging.h"

namespace mllibstar {
namespace {

double InfNorm(const DenseVector& v) {
  double best = 0.0;
  for (size_t i = 0; i < v.dim(); ++i) {
    best = std::max(best, std::fabs(v[i]));
  }
  return best;
}

}  // namespace

LbfgsResult LbfgsSolver::Minimize(const Oracle& oracle,
                                  DenseVector initial) const {
  LbfgsState state;
  state.x = std::move(initial);
  return MinimizeFrom(oracle, std::move(state));
}

LbfgsResult LbfgsSolver::MinimizeFrom(
    const Oracle& oracle, LbfgsState st,
    const IterationObserver& observer) const {
  const size_t dim = st.x.dim();
  MLLIBSTAR_CHECK_EQ(st.y_history.size(), st.s_history.size());
  MLLIBSTAR_CHECK_EQ(st.rho_history.size(), st.s_history.size());
  MLLIBSTAR_CHECK_LE(st.s_history.size(), options_.history)
      << "more correction pairs than the history";
  for (size_t j = 0; j < st.s_history.size(); ++j) {
    MLLIBSTAR_CHECK_EQ(st.s_history[j].dim(), dim);
    MLLIBSTAR_CHECK_EQ(st.y_history[j].dim(), dim);
  }
  if (st.evaluated) {
    MLLIBSTAR_CHECK_EQ(st.gradient.dim(), dim);
  }
  LbfgsResult result;

  if (!st.evaluated) {
    st.gradient = DenseVector(dim);
    st.objective = oracle(st.x, &st.gradient);
    ++result.function_evaluations;
    st.evaluated = true;
  }

  DenseVector direction(dim);
  std::vector<double> alpha(options_.history, 0.0);

  for (int iter = st.iteration; iter < options_.max_iterations; ++iter) {
    const double gnorm = InfNorm(st.gradient);
    if (gnorm <= options_.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion: direction = -H_k * gradient.
    direction = st.gradient;
    const size_t m = st.s_history.size();
    for (size_t j = m; j-- > 0;) {
      alpha[j] = st.rho_history[j] * st.s_history[j].Dot(direction);
      direction.AddScaled(st.y_history[j], -alpha[j]);
    }
    if (m > 0) {
      // Initial Hessian scaling gamma = (s.y)/(y.y) (Nocedal 7.20).
      const double ys = st.y_history[m - 1].Dot(st.s_history[m - 1]);
      const double yy = st.y_history[m - 1].SquaredNorm();
      if (yy > 0) direction.Scale(ys / yy);
    }
    for (size_t j = 0; j < m; ++j) {
      const double beta = st.rho_history[j] * st.y_history[j].Dot(direction);
      direction.AddScaled(st.s_history[j], alpha[j] - beta);
    }
    direction.Scale(-1.0);

    double directional = st.gradient.Dot(direction);
    if (directional >= 0) {
      // Not a descent direction (can happen with noisy oracles):
      // restart from steepest descent.
      direction = st.gradient;
      direction.Scale(-1.0);
      directional = -st.gradient.SquaredNorm();
      st.s_history.clear();
      st.y_history.clear();
      st.rho_history.clear();
    }

    // Armijo backtracking line search.
    double step = 1.0;
    DenseVector candidate(dim);
    DenseVector candidate_gradient(dim);
    double candidate_objective = st.objective;
    bool accepted = false;
    for (int ls = 0; ls < options_.max_line_search_steps; ++ls) {
      candidate = st.x;
      candidate.AddScaled(direction, step);
      candidate_objective = oracle(candidate, &candidate_gradient);
      ++result.function_evaluations;
      if (candidate_objective <=
          st.objective + options_.armijo_c * step * directional) {
        accepted = true;
        break;
      }
      step *= options_.backtrack_factor;
    }
    // A failed line search means the gradient noise floor is reached.
    if (!accepted) break;

    // Update histories.
    DenseVector s = candidate;
    s.AddScaled(st.x, -1.0);
    DenseVector y = candidate_gradient;
    y.AddScaled(st.gradient, -1.0);
    const double ys = y.Dot(s);
    if (ys > 1e-12) {
      st.s_history.push_back(std::move(s));
      st.y_history.push_back(std::move(y));
      st.rho_history.push_back(1.0 / ys);
      if (st.s_history.size() > options_.history) {
        st.s_history.erase(st.s_history.begin());
        st.y_history.erase(st.y_history.begin());
        st.rho_history.erase(st.rho_history.begin());
      }
    }

    const double previous = st.objective;
    st.x = std::move(candidate);
    st.gradient = std::move(candidate_gradient);
    st.objective = candidate_objective;
    st.iteration = iter + 1;
    result.iterations = iter + 1;
    if (observer) observer(st);

    if (previous - st.objective <=
        options_.objective_tolerance * std::max(1.0, std::fabs(previous))) {
      result.converged = true;
      break;
    }
  }

  result.objective = st.objective;
  result.minimizer = std::move(st.x);
  return result;
}

}  // namespace mllibstar
