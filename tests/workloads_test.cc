// The multiclass/maxent workload and the warm-started elastic-net
// regularization path. The invariants mirror the binary suite's: every
// simulated result is independent of host_threads (EXPECT_EQ on
// doubles, with lossy codecs and fault injection on), and a
// checkpoint-resumed path reproduces the uninterrupted one's solutions
// exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/model.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "train/trainer.h"
#include "workloads/objective.h"
#include "workloads/path_search.h"

namespace mllibstar {
namespace {

constexpr size_t kClasses = 3;

Dataset MulticlassData(size_t instances = 300, size_t features = 60) {
  MulticlassSpec spec;
  spec.base.name = "mc";
  spec.base.num_instances = instances;
  spec.base.num_features = features;
  spec.base.avg_nnz = 8;
  spec.base.label_noise = 0.02;
  spec.base.seed = 77;
  spec.num_classes = kClasses;
  return GenerateMulticlass(spec);
}

Dataset BinaryData(size_t instances = 200, size_t features = 40) {
  SyntheticSpec spec;
  spec.name = "bin";
  spec.num_instances = instances;
  spec.num_features = features;
  spec.avg_nnz = 8;
  spec.seed = 19;
  return GenerateSynthetic(spec);
}

// Lossy codec + stragglers + probabilistic crashes: the acceptance
// gauntlet. Bit-identity must survive all of it.
ClusterConfig FaultyCluster() {
  ClusterConfig config = ClusterConfig::Cluster1(8);
  config.straggler_sigma = 0.08;
  config.task_failure_prob = 0.05;
  config.faults.worker_crash_prob = 0.02;
  return config;
}

TrainerConfig MulticlassConfig(size_t host_threads) {
  TrainerConfig config;
  config.num_classes = kClasses;
  config.regularizer = RegularizerKind::kL2;
  config.lambda = 1e-3;
  config.base_lr = 0.5;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 8;
  config.seed = 5;
  config.host_threads = host_threads;
  config.codec.kind = CodecKind::kInt8Linear;
  return config;
}

void ExpectSameWeights(const DenseVector& a, const DenseVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "coordinate " << i;
  }
}

void ExpectBitIdentical(const TrainResult& a, const TrainResult& b) {
  EXPECT_EQ(a.comm_steps, b.comm_steps);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_model_updates, b.total_model_updates);
  ASSERT_EQ(a.curve.points().size(), b.curve.points().size());
  for (size_t i = 0; i < a.curve.points().size(); ++i) {
    EXPECT_EQ(a.curve.points()[i].objective, b.curve.points()[i].objective);
  }
  ExpectSameWeights(a.final_weights, b.final_weights);
}

std::string TestName(const ::testing::TestParamInfo<SystemKind>& info) {
  std::string name = SystemName(info.param);
  for (char& c : name) {
    if (c == '*') {
      c = 'S';
    } else if (!std::isalnum(static_cast<unsigned char>(c))) {
      c = '_';
    }
  }
  return name;
}

// ---------------------------------------------------------------- kernels

TEST(SoftmaxKernelTest, GradientMatchesFiniteDifference) {
  const Dataset data = MulticlassData(40, 12);
  const size_t d = data.num_features();
  const size_t dim = kClasses * d;
  Rng rng(3);
  DenseVector w(dim);
  for (size_t i = 0; i < dim; ++i) w[i] = 0.3 * rng.NextGaussian();

  const auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);
  DenseVector gradient(dim);
  double loss_sum = 0.0;
  MakeSoftmaxObjective(kClasses, none.get(), true)
      ->LossGradient(CsrBlock::FromPoints(data.points()), w, &gradient,
                     &loss_sum);
  const double n = static_cast<double>(data.size());
  EXPECT_NEAR(loss_sum / n, MeanSoftmaxLoss(data.points(), kClasses, d, w),
              1e-12);

  const double eps = 1e-6;
  for (size_t j = 0; j < dim; j += 7) {  // a sample of coordinates
    DenseVector plus = w, minus = w;
    plus[j] += eps;
    minus[j] -= eps;
    const double numeric =
        (MeanSoftmaxLoss(data.points(), kClasses, d, plus) -
         MeanSoftmaxLoss(data.points(), kClasses, d, minus)) *
        n / (2.0 * eps);
    EXPECT_NEAR(gradient[j], numeric, 1e-4) << "coordinate " << j;
  }
}

TEST(SoftmaxKernelTest, LazyL2MatchesEagerWithinTolerance) {
  // Same math, different FP schedule: the lazy scalar-scale pass must
  // land within rounding error of the eager dense pass.
  const Dataset data = MulticlassData(80, 15);
  const size_t d = data.num_features();
  const CsrBlock block = CsrBlock::FromPoints(data.points());
  const auto reg = MakeRegularizer(RegularizerKind::kL2, 1e-2);
  DenseVector lazy(kClasses * d), eager(kClasses * d);
  Rng ra(4), rb(4);
  MakeSoftmaxObjective(kClasses, reg.get(), true)
      ->SgdEpoch(block, 0.2, &ra, &lazy);
  MakeSoftmaxObjective(kClasses, reg.get(), false)
      ->SgdEpoch(block, 0.2, &rb, &eager);
  for (size_t i = 0; i < lazy.dim(); ++i) {
    EXPECT_NEAR(lazy[i], eager[i], 1e-9) << "coordinate " << i;
  }
}

// ------------------------------------------------- multiclass training

class MulticlassHostparTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(MulticlassHostparTest, BitIdenticalAcrossHostThreads) {
  const Dataset data = MulticlassData();
  const ClusterConfig cluster = FaultyCluster();
  const TrainResult a =
      MakeTrainer(GetParam(), MulticlassConfig(1))->Train(data, cluster);
  const TrainResult b =
      MakeTrainer(GetParam(), MulticlassConfig(8))->Train(data, cluster);
  ExpectBitIdentical(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, MulticlassHostparTest,
    ::testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                      SystemKind::kMllibStar, SystemKind::kPetuum,
                      SystemKind::kPetuumStar, SystemKind::kAngel,
                      SystemKind::kMllibLbfgs),
    TestName);

class MulticlassLearnsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(MulticlassLearnsTest, BeatsChanceAccuracy) {
  const Dataset data = MulticlassData();
  TrainerConfig config = MulticlassConfig(1);
  config.codec.kind = CodecKind::kDenseF64;
  config.max_comm_steps = 25;
  const TrainResult result =
      MakeTrainer(GetParam(), config)->Train(data, ClusterConfig::Cluster1(4));
  ASSERT_FALSE(result.diverged);
  const MulticlassGlmModel model(kClasses, data.num_features(),
                                 result.final_weights);
  // Chance is 1/3; a trained softmax should clear half the data.
  EXPECT_GT(MulticlassAccuracy(data.points(), model), 0.5)
      << SystemName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, MulticlassLearnsTest,
    ::testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                      SystemKind::kMllibStar, SystemKind::kPetuum,
                      SystemKind::kPetuumStar, SystemKind::kAngel,
                      SystemKind::kMllibLbfgs),
    TestName);

TEST(MulticlassCheckpointTest, ResumeReproducesMulticlassRun) {
  // The num_classes word in every trainer checkpoint: a resumed
  // multiclass run must land exactly on the uninterrupted one.
  const Dataset data = MulticlassData(200, 30);
  const ClusterConfig cluster = ClusterConfig::Cluster1(4);
  TrainerConfig config = MulticlassConfig(1);
  config.codec.kind = CodecKind::kDenseF64;
  config.max_comm_steps = 8;

  const TrainResult full =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, cluster);

  const std::string path = testing::TempDir() + "/mc_resume.bin";
  std::remove(path.c_str());
  TrainerConfig first = config;
  first.max_comm_steps = 4;
  first.checkpoint.path = path;
  first.checkpoint.every_steps = 4;
  MakeTrainer(SystemKind::kMllibStar, first)->Train(data, cluster);

  TrainerConfig second = config;
  second.checkpoint.path = path;
  second.checkpoint.resume = true;
  const TrainResult resumed =
      MakeTrainer(SystemKind::kMllibStar, second)->Train(data, cluster);
  ExpectSameWeights(full.final_weights, resumed.final_weights);
  std::remove(path.c_str());
}

// ------------------------------------------------- regularization path

PathConfig BasePath(SystemKind system, size_t host_threads = 1) {
  PathConfig path;
  path.system = system;
  path.trainer.loss = LossKind::kLogistic;
  path.trainer.base_lr = 0.5;
  path.trainer.lr_schedule = LrScheduleKind::kConstant;
  path.trainer.batch_fraction = 0.1;
  path.trainer.max_comm_steps = 6;
  path.trainer.seed = 5;
  path.trainer.host_threads = host_threads;
  path.n_lambdas = 3;
  path.l1_ratio = 0.5;
  path.path_patience = 100;  // no early stop unless a test asks
  return path;
}

TEST(LambdaGridTest, DescendingLogSpacedEndpoints) {
  const std::vector<double> grid = LambdaGrid(2.0, 1e-2, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 2.0);
  EXPECT_NEAR(grid.back(), 0.02, 1e-12);
  for (size_t i = 1; i < grid.size(); ++i) EXPECT_LT(grid[i], grid[i - 1]);
}

TEST(DeriveLambdaMaxTest, LambdaMaxZeroesThePureL1Solution) {
  const Dataset data = BinaryData();
  TrainerConfig tc;
  tc.loss = LossKind::kLogistic;
  const double lambda_max = DeriveLambdaMax(data, tc, 1.0);
  ASSERT_GT(lambda_max, 0.0);

  PathConfig path = BasePath(SystemKind::kMllibLbfgs);
  path.l1_ratio = 1.0;
  path.lambda_max = lambda_max;
  path.n_lambdas = 1;
  const PathResult result =
      RunPath(data, ClusterConfig::Cluster1(4), path);
  ASSERT_EQ(result.solves.size(), 1u);
  EXPECT_EQ(result.solves[0].nnz, 0u);
}

class PathHostparTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(PathHostparTest, ElasticNetPathBitIdenticalAcrossHostThreads) {
  // End-to-end acceptance: the elastic-net path, with a lossy codec
  // and fault injection on, must not move by a bit under host
  // parallelism — for every trainer.
  const Dataset data = BinaryData();
  const ClusterConfig cluster = FaultyCluster();
  PathConfig one = BasePath(GetParam(), 1);
  one.trainer.codec.kind = CodecKind::kInt8Linear;
  PathConfig eight = BasePath(GetParam(), 8);
  eight.trainer.codec.kind = CodecKind::kInt8Linear;

  const PathResult a = RunPath(data, cluster, one);
  const PathResult b = RunPath(data, cluster, eight);
  ASSERT_EQ(a.solves.size(), b.solves.size());
  for (size_t i = 0; i < a.solves.size(); ++i) {
    EXPECT_EQ(a.solves[i].cv_loss, b.solves[i].cv_loss);
    EXPECT_EQ(a.solves[i].objective, b.solves[i].objective);
    EXPECT_EQ(a.solves[i].nnz, b.solves[i].nnz);
    EXPECT_EQ(a.solves[i].sim_seconds, b.solves[i].sim_seconds);
    ExpectSameWeights(a.solves[i].weights, b.solves[i].weights);
  }
  EXPECT_EQ(a.best_index, b.best_index);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, PathHostparTest,
    ::testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                      SystemKind::kMllibStar, SystemKind::kPetuum,
                      SystemKind::kPetuumStar, SystemKind::kAngel,
                      SystemKind::kMllibLbfgs),
    TestName);

class PathResumeTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(PathResumeTest, ResumedPathMatchesFullPathBitForBit) {
  // Satellite: warm-start determinism. λ_k's solution must be
  // bit-identical whether the path ran straight through or was
  // checkpointed after λ_{k−1} and resumed in a fresh process state.
  const Dataset data = BinaryData();
  const ClusterConfig cluster = ClusterConfig::Cluster1(4);
  const PathConfig full_config = BasePath(GetParam());
  const PathResult full = RunPath(data, cluster, full_config);
  ASSERT_EQ(full.solves.size(), 3u);

  const std::string path =
      testing::TempDir() + "/path_resume_" + TestName({GetParam(), 0}) +
      ".bin";
  std::remove(path.c_str());
  PathConfig first = full_config;
  first.checkpoint.path = path;
  first.checkpoint.every_steps = 1;
  first.max_solves = 1;
  const PathResult head = RunPath(data, cluster, first);
  ASSERT_EQ(head.solves.size(), 1u);

  PathConfig second = full_config;
  second.checkpoint.path = path;
  second.checkpoint.resume = true;
  const PathResult resumed = RunPath(data, cluster, second);

  ASSERT_EQ(resumed.solves.size(), full.solves.size());
  for (size_t i = 0; i < full.solves.size(); ++i) {
    EXPECT_EQ(resumed.solves[i].lambda, full.solves[i].lambda);
    EXPECT_EQ(resumed.solves[i].cv_loss, full.solves[i].cv_loss);
    EXPECT_EQ(resumed.solves[i].objective, full.solves[i].objective);
    ExpectSameWeights(resumed.solves[i].weights, full.solves[i].weights);
  }
  EXPECT_EQ(resumed.best_index, full.best_index);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, PathResumeTest,
    ::testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                      SystemKind::kMllibStar, SystemKind::kPetuum,
                      SystemKind::kPetuumStar, SystemKind::kAngel,
                      SystemKind::kMllibLbfgs),
    TestName);

TEST(OwlqnPathTest, SparsityNonIncreasingAsLambdaDecreases) {
  // Pure L1 under OWL-QN: shrinking λ can only release coordinates,
  // never re-zero whole swaths — nnz is non-decreasing along the path,
  // starting from the all-zeros solution at the derived λ_max.
  const Dataset data = BinaryData(300, 60);
  PathConfig path = BasePath(SystemKind::kMllibLbfgs);
  path.l1_ratio = 1.0;
  path.n_lambdas = 5;
  path.lambda_min_ratio = 1e-3;
  path.trainer.max_comm_steps = 30;
  const PathResult result =
      RunPath(data, ClusterConfig::Cluster1(4), path);
  ASSERT_EQ(result.solves.size(), 5u);
  EXPECT_EQ(result.solves[0].nnz, 0u);
  for (size_t i = 1; i < result.solves.size(); ++i) {
    EXPECT_GE(result.solves[i].nnz, result.solves[i - 1].nnz)
        << "solve " << i;
  }
  EXPECT_GT(result.solves.back().nnz, 0u);
}

TEST(PathEarlyStopTest, FiresOnFlatTail) {
  // Deep into the path λ is tiny and the training loss stops moving;
  // the patience rule must cut the grid short.
  const Dataset data = BinaryData();
  PathConfig path = BasePath(SystemKind::kMllibLbfgs);
  path.n_lambdas = 12;
  path.lambda_min_ratio = 1e-8;
  path.path_rel_improvement = 1e-3;
  path.path_patience = 2;
  path.trainer.max_comm_steps = 20;
  const PathResult result =
      RunPath(data, ClusterConfig::Cluster1(4), path);
  EXPECT_TRUE(result.early_stopped);
  EXPECT_LT(result.solves.size(), result.lambdas.size());
  EXPECT_GE(result.solves.size(), 3u);  // patience delays the stop
}

TEST(PathCvTest, StratifiedCrossValidationOnMulticlass) {
  const Dataset data = MulticlassData(150, 20);
  PathConfig path = BasePath(SystemKind::kMllibStar);
  path.trainer.num_classes = kClasses;
  path.num_folds = 3;
  path.stratified_folds = true;
  path.n_lambdas = 2;
  const PathResult result =
      RunPath(data, ClusterConfig::Cluster1(4), path);
  ASSERT_EQ(result.solves.size(), 2u);
  EXPECT_LT(result.best_index, result.solves.size());
  for (const PathSolve& solve : result.solves) {
    EXPECT_TRUE(std::isfinite(solve.cv_loss));
    EXPECT_GT(solve.cv_loss, 0.0);
    // Fold solves and the full-data solve all contribute sim time.
    EXPECT_GT(solve.sim_seconds, 0.0);
  }
}

TEST(PathWarmStartTest, WarmPathNoSlowerThanColdInSimTime) {
  // The point of the subsystem: warm starts + the per-solve
  // relative-improvement stop make the whole path cheaper than
  // resolving every λ from zeros.
  const Dataset data = BinaryData(400, 80);
  PathConfig warm = BasePath(SystemKind::kMllibLbfgs);
  warm.n_lambdas = 6;
  warm.trainer.max_comm_steps = 40;
  warm.solve_rel_tolerance = 1e-4;
  PathConfig cold = warm;
  cold.warm_start = false;

  const ClusterConfig cluster = ClusterConfig::Cluster1(4);
  const PathResult warm_result = RunPath(data, cluster, warm);
  const PathResult cold_result = RunPath(data, cluster, cold);
  ASSERT_EQ(warm_result.solves.size(), cold_result.solves.size());
  double warm_total = 0.0, cold_total = 0.0;
  for (const PathSolve& s : warm_result.solves) warm_total += s.sim_seconds;
  for (const PathSolve& s : cold_result.solves) cold_total += s.sim_seconds;
  EXPECT_LT(warm_total, cold_total);
}

TEST(StratifiedKFoldTest, EveryFoldSeesEveryClass) {
  const Dataset data = MulticlassData(90, 15);
  for (size_t fold = 0; fold < 3; ++fold) {
    const TrainTestSplit split = StratifiedKFold(data, 3, fold);
    EXPECT_EQ(split.train.size() + split.test.size(), data.size());
    std::vector<size_t> train_counts(kClasses, 0), test_counts(kClasses, 0);
    for (const DataPoint& p : split.train.points()) {
      ++train_counts[static_cast<size_t>(p.label)];
    }
    for (const DataPoint& p : split.test.points()) {
      ++test_counts[static_cast<size_t>(p.label)];
    }
    for (size_t k = 0; k < kClasses; ++k) {
      EXPECT_GT(train_counts[k], 0u) << "fold " << fold << " class " << k;
      EXPECT_GT(test_counts[k], 0u) << "fold " << fold << " class " << k;
    }
  }
}

TEST(MulticlassDataTest, LabelsAreClassIdsAndSyntheticStreamUntouched) {
  const Dataset data = MulticlassData();
  for (const DataPoint& p : data.points()) {
    EXPECT_GE(p.label, 0.0);
    EXPECT_LT(p.label, static_cast<double>(kClasses));
    EXPECT_EQ(p.label, static_cast<double>(static_cast<size_t>(p.label)));
  }
  // All three classes occur.
  std::vector<size_t> counts(kClasses, 0);
  for (const DataPoint& p : data.points()) {
    ++counts[static_cast<size_t>(p.label)];
  }
  for (size_t k = 0; k < kClasses; ++k) EXPECT_GT(counts[k], 0u);
}

}  // namespace
}  // namespace mllibstar
