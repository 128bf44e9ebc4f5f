#include "core/lbfgs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "core/model.h"
#include "data/synthetic.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

TEST(LbfgsSolverTest, MinimizesQuadratic) {
  // f(w) = 0.5 * sum a_i (w_i - b_i)^2, minimum at w = b.
  const std::vector<double> a = {1.0, 10.0, 0.1, 4.0};
  const std::vector<double> b = {1.0, -2.0, 3.0, 0.5};
  auto oracle = [&](const DenseVector& w, DenseVector* g) {
    double f = 0.0;
    for (size_t i = 0; i < 4; ++i) {
      const double d = w[i] - b[i];
      f += 0.5 * a[i] * d * d;
      (*g)[i] = a[i] * d;
    }
    return f;
  };
  LbfgsSolver solver(LbfgsOptions{});
  const LbfgsResult result = solver.Minimize(oracle, DenseVector(4));
  EXPECT_TRUE(result.converged);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.minimizer[i], b[i], 1e-5);
  }
  EXPECT_NEAR(result.objective, 0.0, 1e-9);
}

TEST(LbfgsSolverTest, MinimizesRosenbrock) {
  // The classic banana function: minimum (1, 1).
  auto oracle = [](const DenseVector& w, DenseVector* g) {
    const double x = w[0];
    const double y = w[1];
    const double f = 100.0 * (y - x * x) * (y - x * x) + (1 - x) * (1 - x);
    (*g)[0] = -400.0 * x * (y - x * x) - 2.0 * (1 - x);
    (*g)[1] = 200.0 * (y - x * x);
    return f;
  };
  LbfgsOptions options;
  options.max_iterations = 500;
  LbfgsSolver solver(options);
  const LbfgsResult result = solver.Minimize(oracle, DenseVector(2));
  EXPECT_NEAR(result.minimizer[0], 1.0, 1e-4);
  EXPECT_NEAR(result.minimizer[1], 1.0, 1e-4);
}

TEST(LbfgsSolverTest, BeatsGradientDescentOnIllConditionedQuadratic) {
  // Condition number 1e4: GD crawls, L-BFGS doesn't care.
  const size_t dim = 20;
  std::vector<double> a(dim);
  for (size_t i = 0; i < dim; ++i) {
    a[i] = std::pow(10.0, 4.0 * static_cast<double>(i) / (dim - 1));
  }
  auto oracle = [&](const DenseVector& w, DenseVector* g) {
    double f = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      const double d = w[i] - 1.0;
      f += 0.5 * a[i] * d * d;
      (*g)[i] = a[i] * d;
    }
    return f;
  };
  LbfgsOptions options;
  options.max_iterations = 400;
  LbfgsSolver solver(options);
  DenseVector start(dim);
  const LbfgsResult result = solver.Minimize(oracle, start);
  // Initial objective is ~1.4e4; plain GD with lr = 1/L = 1e-4 would
  // still be at ~1e3 after 400 steps (the smallest-curvature
  // coordinate needs ~1e4 iterations). L-BFGS gets many orders of
  // magnitude further.
  EXPECT_LT(result.objective, 1e-2);
}

TEST(LbfgsSolverTest, TraceIsMonotoneNonIncreasing) {
  auto oracle = [](const DenseVector& w, DenseVector* g) {
    double f = 0.0;
    for (size_t i = 0; i < w.dim(); ++i) {
      f += 0.25 * std::pow(w[i] - 2.0, 4);
      (*g)[i] = std::pow(w[i] - 2.0, 3);
    }
    return f;
  };
  LbfgsSolver solver(LbfgsOptions{});
  // From the origin the first step lands on the minimum exactly, so
  // start where the solver needs many iterations.
  LbfgsState start;
  start.x = DenseVector(std::vector<double>{0.0, 0.5, -1.0});
  std::vector<double> objectives;
  solver.MinimizeFrom(oracle, std::move(start), [&](const LbfgsState& st) {
    objectives.push_back(st.objective);
  });
  ASSERT_GT(objectives.size(), 1u);
  for (size_t i = 1; i < objectives.size(); ++i) {
    EXPECT_LE(objectives[i], objectives[i - 1]);
  }
}

TEST(LbfgsSolverTest, RespectsIterationBudget) {
  auto oracle = [](const DenseVector& w, DenseVector* g) {
    double f = 0.0;
    for (size_t i = 0; i < w.dim(); ++i) {
      f += std::cosh(w[i] - 1.0);
      (*g)[i] = std::sinh(w[i] - 1.0);
    }
    return f;
  };
  LbfgsOptions options;
  options.max_iterations = 3;
  options.objective_tolerance = 0.0;
  options.gradient_tolerance = 0.0;
  LbfgsSolver solver(options);
  const LbfgsResult result = solver.Minimize(oracle, DenseVector(5));
  EXPECT_LE(result.iterations, 3);
}

TEST(LbfgsSolverTest, AlreadyAtMinimumConvergesImmediately) {
  auto oracle = [](const DenseVector& w, DenseVector* g) {
    g->SetZero();
    (void)w;
    return 0.0;
  };
  LbfgsSolver solver(LbfgsOptions{});
  const LbfgsResult result = solver.Minimize(oracle, DenseVector(4));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.function_evaluations, 1);
}

// States no solver run produces. The two-loop recursion sizes its
// scratch by the history and walks every stored pair against x, so it
// must refuse such a state instead of reading or writing past it.
TEST(LbfgsSolverDeathTest, RejectsStatesItCouldNotHaveProduced) {
  LbfgsOptions options;
  options.history = 2;
  const LbfgsSolver solver(options);
  auto oracle = [](const DenseVector&, DenseVector* g) {
    g->SetZero();
    return 0.0;
  };
  LbfgsState too_long;
  too_long.x = DenseVector(2);
  for (int i = 0; i < 3; ++i) {
    too_long.s_history.push_back(DenseVector(2));
    too_long.y_history.push_back(DenseVector(2));
    too_long.rho_history.push_back(1.0);
  }
  EXPECT_DEATH(solver.MinimizeFrom(oracle, too_long),
               "more correction pairs than the history");

  LbfgsState wrong_dim;
  wrong_dim.x = DenseVector(2);
  wrong_dim.s_history.push_back(DenseVector(3));
  wrong_dim.y_history.push_back(DenseVector(2));
  wrong_dim.rho_history.push_back(1.0);
  EXPECT_DEATH(solver.MinimizeFrom(oracle, wrong_dim), "dim");
}

// A real run's snapshot, re-written through Checkpoint::WriteFile (so
// its checksum holds) with its first correction pair repeated 40 times
// against a history of 10, and its iteration word below the budget.
// The resume must stop at the history-length word before it reads a
// pair; the solver would otherwise write past its scratch.
TEST(LbfgsResumeDeathTest, RejectsMoreCorrectionPairsThanTheHistory) {
  SyntheticSpec spec;
  spec.name = "lbfgs-resume";
  spec.num_instances = 300;
  spec.num_features = 40;
  spec.avg_nnz = 6;
  spec.seed = 37;
  const Dataset data = GenerateSynthetic(spec);
  const ClusterConfig cluster = ClusterConfig::Cluster1(4);
  const std::string path = testing::TempDir() + "/lbfgs_history.ckpt";
  std::remove(path.c_str());

  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.regularizer = RegularizerKind::kL2;
  config.lambda = 0.01;
  config.max_comm_steps = 3;
  config.checkpoint.path = path;
  config.checkpoint.every_steps = 3;
  (void)MakeTrainer(SystemKind::kMllibLbfgs, config)->Train(data, cluster);

  Checkpoint in;
  ASSERT_TRUE(in.ReadFile(path).ok());
  Checkpoint out;
  // Tag, reserved word, iteration, evaluated flag, objective.
  for (int i = 0; i < 5; ++i) out.PutU64(in.TakeU64());
  out.PutVector(in.TakeVector());  // iterate
  out.PutVector(in.TakeVector());  // gradient
  const uint64_t m = in.TakeU64();
  ASSERT_GE(m, 1u);
  const DenseVector s = in.TakeVector();
  const DenseVector y = in.TakeVector();
  const double rho = in.TakeDouble();
  for (uint64_t i = 1; i < m; ++i) {
    (void)in.TakeVector();
    (void)in.TakeVector();
    (void)in.TakeDouble();
  }
  out.PutU64(40);
  for (int i = 0; i < 40; ++i) {
    out.PutVector(s);
    out.PutVector(y);
    out.PutDouble(rho);
  }
  while (!in.exhausted()) out.PutU64(in.TakeU64());  // reserved, elastic
  ASSERT_TRUE(out.WriteFile(path).ok());

  config.max_comm_steps = 50;
  config.checkpoint.every_steps = 0;
  config.checkpoint.resume = true;
  EXPECT_DEATH(
      MakeTrainer(SystemKind::kMllibLbfgs, config)->Train(data, cluster),
      "checkpoint holds more correction pairs than the history");
}

TEST(LbfgsTrainerTest, ConvergesOnLogisticRegression) {
  SyntheticSpec spec;
  spec.name = "lbfgs";
  spec.num_instances = 600;
  spec.num_features = 80;
  spec.avg_nnz = 8;
  spec.seed = 31;
  const Dataset data = GenerateSynthetic(spec);
  ClusterConfig cluster = ClusterConfig::Cluster1(4);
  cluster.straggler_sigma = 0.0;

  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.regularizer = RegularizerKind::kL2;
  config.lambda = 0.01;
  config.max_comm_steps = 40;
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibLbfgs, config)->Train(data, cluster);
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.curve.BestObjective(),
            result.curve.points().front().objective * 0.8);
  EXPECT_GT(Accuracy(data.rows(), result.final_weights), 0.85);
}

TEST(LbfgsTrainerTest, ConvergesFasterPerPassThanMllibGd) {
  // Second-order curvature information beats plain batch GD per
  // distributed pass on a smooth strongly-convex objective.
  SyntheticSpec spec;
  spec.name = "lbfgs-vs-gd";
  spec.num_instances = 800;
  spec.num_features = 120;
  spec.avg_nnz = 10;
  spec.seed = 33;
  const Dataset data = GenerateSynthetic(spec);
  ClusterConfig cluster = ClusterConfig::Cluster1(4);
  cluster.straggler_sigma = 0.0;

  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.regularizer = RegularizerKind::kL2;
  config.lambda = 0.01;
  config.max_comm_steps = 30;
  config.batch_fraction = 1.0;  // full-batch GD for a fair comparison
  config.base_lr = 0.5;
  config.lr_schedule = LrScheduleKind::kConstant;

  const TrainResult lbfgs =
      MakeTrainer(SystemKind::kMllibLbfgs, config)->Train(data, cluster);
  const TrainResult gd =
      MakeTrainer(SystemKind::kMllib, config)->Train(data, cluster);
  EXPECT_LT(lbfgs.curve.BestObjective(), gd.curve.BestObjective() + 1e-9);
}

TEST(LbfgsTrainerTest, NameAndFactory) {
  auto trainer = MakeTrainer(SystemKind::kMllibLbfgs, TrainerConfig{});
  ASSERT_NE(trainer, nullptr);
  EXPECT_EQ(trainer->name(), "mllib-lbfgs");
  EXPECT_EQ(SystemName(SystemKind::kMllibLbfgs), "mllib-lbfgs");
}

}  // namespace
}  // namespace mllibstar
