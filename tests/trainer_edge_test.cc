// Edge-case and configuration-surface tests for the trainers, beyond
// the core behaviors covered in trainer_test.cc.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "data/synthetic.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

Dataset SmallData(uint64_t seed = 88) {
  SyntheticSpec spec;
  spec.name = "edge";
  spec.num_instances = 500;
  spec.num_features = 120;
  spec.avg_nnz = 8;
  spec.seed = seed;
  return GenerateSynthetic(spec);
}

ClusterConfig SmallCluster(size_t workers = 4) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.0;
  return config;
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.3;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.max_comm_steps = 8;
  return config;
}

TEST(TrainerEdgeTest, SquaredLossRegressionRuns) {
  Dataset data(3, "sq");
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    DataPoint p;
    const FeatureIndex j = static_cast<FeatureIndex>(i % 3);
    p.features.Push(j, 1.0);
    p.label = (j == 0 ? 1.0 : j == 1 ? -2.0 : 0.5) + 0.01 * rng.NextGaussian();
    data.Add(p);
  }
  TrainerConfig config = BaseConfig();
  config.loss = LossKind::kSquared;
  config.base_lr = 0.2;
  config.max_comm_steps = 15;
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, SmallCluster());
  EXPECT_FALSE(result.diverged);
  EXPECT_NEAR(result.final_weights[0], 1.0, 0.1);
  EXPECT_NEAR(result.final_weights[1], -2.0, 0.1);
  EXPECT_NEAR(result.final_weights[2], 0.5, 0.1);
}

TEST(TrainerEdgeTest, EvalEveryThinsTheCurve) {
  const Dataset data = SmallData();
  TrainerConfig every = BaseConfig();
  every.max_comm_steps = 12;
  TrainerConfig sparse_eval = every;
  sparse_eval.eval_every = 4;
  const TrainResult a =
      MakeTrainer(SystemKind::kMllibStar, every)->Train(data, SmallCluster());
  const TrainResult b = MakeTrainer(SystemKind::kMllibStar, sparse_eval)
                            ->Train(data, SmallCluster());
  EXPECT_EQ(a.curve.points().size(), 13u);  // initial + 12
  EXPECT_EQ(b.curve.points().size(), 4u);   // initial + steps 4, 8, 12
}

TEST(TrainerEdgeTest, AspRunsAndConverges) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 20;
  config.batch_fraction = 0.2;
  // ASP: a staleness bound the round budget never reaches.
  config.ps.staleness = config.max_comm_steps;
  const TrainResult result = MakeTrainer(SystemKind::kPetuumStar, config)
                                 ->Train(data, SmallCluster());
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.curve.BestObjective(),
            result.curve.points().front().objective);
}

TEST(TrainerEdgeTest, AspIsNoSlowerThanBspUnderJitter) {
  const Dataset data = SmallData();
  ClusterConfig jittery = ClusterConfig::Cluster2(4);
  TrainerConfig bsp = BaseConfig();
  bsp.max_comm_steps = 15;
  bsp.batch_fraction = 0.3;
  TrainerConfig asp = bsp;
  asp.ps.staleness = asp.max_comm_steps;
  const TrainResult b =
      MakeTrainer(SystemKind::kPetuumStar, bsp)->Train(data, jittery);
  const TrainResult a =
      MakeTrainer(SystemKind::kPetuumStar, asp)->Train(data, jittery);
  EXPECT_LE(a.sim_seconds, b.sim_seconds + 1e-9);
}

TEST(TrainerEdgeTest, MorePsShardsNeverSlower) {
  const Dataset data = SmallData();
  TrainerConfig two = BaseConfig();
  two.max_comm_steps = 6;
  two.ps.num_shards = 1;
  TrainerConfig four = two;
  four.ps.num_shards = 4;
  const TrainResult a =
      MakeTrainer(SystemKind::kAngel, two)->Train(data, SmallCluster());
  const TrainResult b =
      MakeTrainer(SystemKind::kAngel, four)->Train(data, SmallCluster());
  EXPECT_LE(b.sim_seconds, a.sim_seconds * 1.05);
}

TEST(TrainerEdgeTest, SingleWorkerDegeneratesGracefully) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  for (SystemKind kind : {SystemKind::kMllib, SystemKind::kMllibStar,
                          SystemKind::kPetuumStar}) {
    const TrainResult result =
        MakeTrainer(kind, config)->Train(data, SmallCluster(1));
    EXPECT_FALSE(result.diverged) << SystemName(kind);
    EXPECT_LT(result.curve.BestObjective(),
              result.curve.points().front().objective)
        << SystemName(kind);
  }
}

TEST(TrainerEdgeTest, MoreWorkersThanPoints) {
  Dataset tiny(10, "tiny");
  for (int i = 0; i < 3; ++i) {
    DataPoint p;
    p.label = i % 2 == 0 ? 1.0 : -1.0;
    p.features.Push(static_cast<FeatureIndex>(i), 1.0);
    tiny.Add(p);
  }
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 2;
  for (SystemKind kind : {SystemKind::kMllib, SystemKind::kMllibStar,
                          SystemKind::kAngel}) {
    const TrainResult result =
        MakeTrainer(kind, config)->Train(tiny, SmallCluster(8));
    EXPECT_FALSE(result.diverged) << SystemName(kind);
  }
}

TEST(TrainerEdgeTest, SeedChangesTrajectoryButNotOutcomeQuality) {
  const Dataset data = SmallData();
  TrainerConfig a = BaseConfig();
  TrainerConfig b = BaseConfig();
  b.seed = 999;
  const TrainResult ra =
      MakeTrainer(SystemKind::kMllibStar, a)->Train(data, SmallCluster());
  const TrainResult rb =
      MakeTrainer(SystemKind::kMllibStar, b)->Train(data, SmallCluster());
  EXPECT_NE(ra.curve.FinalObjective(), rb.curve.FinalObjective());
  EXPECT_NEAR(ra.curve.FinalObjective(), rb.curve.FinalObjective(), 0.05);
}

TEST(TrainerEdgeTest, FaultyClusterSameResultSlower) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 4;
  ClusterConfig faulty = SmallCluster();
  faulty.task_failure_prob = 0.2;
  const TrainResult clean =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, SmallCluster());
  const TrainResult failed =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, faulty);
  EXPECT_DOUBLE_EQ(clean.curve.FinalObjective(),
                   failed.curve.FinalObjective());
  EXPECT_GT(failed.sim_seconds, clean.sim_seconds);
}

TEST(TrainerConfigTest, DefaultsAndFigureGridsAreValid) {
  EXPECT_TRUE(ValidateTrainerConfig(TrainerConfig()).ok());
  // Every batch fraction and eval cadence the figure benches, perfbench
  // and GridSearchSpec's default grid use.
  for (double fraction : {0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.5}) {
    TrainerConfig config;
    config.batch_fraction = fraction;
    EXPECT_TRUE(ValidateTrainerConfig(config).ok()) << fraction;
  }
  for (int eval_every : {1, 5, 10, 25, 50, 200}) {
    TrainerConfig config;
    config.eval_every = eval_every;
    EXPECT_TRUE(ValidateTrainerConfig(config).ok()) << eval_every;
  }
  // Every learning rate the figure, ablation and perfbench grids and
  // GridSearchSpec's default grid try, and every lambda they train at.
  for (double lr : {0.005, 0.01, 0.02, 0.04, 0.08, 0.1, 0.2, 0.3, 0.32, 0.5,
                    1.0, 4.0, 16.0, 64.0, 256.0, 512.0}) {
    TrainerConfig config;
    config.base_lr = lr;
    EXPECT_TRUE(ValidateTrainerConfig(config).ok()) << lr;
  }
  for (double lambda : {0.0, 1e-3, 0.01, 0.1}) {
    TrainerConfig config;
    config.regularizer = RegularizerKind::kL2;
    config.lambda = lambda;
    EXPECT_TRUE(ValidateTrainerConfig(config).ok()) << lambda;
  }
  // A run of no steps only evaluates the starting model; a target may
  // be any number, infinite ones included.
  TrainerConfig config;
  config.max_comm_steps = 0;
  config.target_objective = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ValidateTrainerConfig(config).ok());
}

TEST(TrainerConfigTest, RejectsBaseLrNotFiniteAndPositive) {
  // A step of -lr · gradient must go downhill: a negative rate trains
  // uphill, and a NaN one poisons the first update.
  const double inf = std::numeric_limits<double>::infinity();
  for (double lr : {0.0, -0.0, -1.0, -inf, inf,
                    std::numeric_limits<double>::quiet_NaN()}) {
    TrainerConfig config;
    config.base_lr = lr;
    const Status status = ValidateTrainerConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << lr;
    EXPECT_NE(status.message().find("base_lr"), std::string::npos);
  }
}

TEST(TrainerConfigTest, RejectsLambdaNotFiniteAndNonNegative) {
  // L2 shrinks the model by 1 - lr · lambda per update; a negative or
  // non-finite strength has no objective to minimize.
  const double inf = std::numeric_limits<double>::infinity();
  for (double lambda : {-1e-3, -1.0, -inf, inf,
                        std::numeric_limits<double>::quiet_NaN()}) {
    TrainerConfig config;
    config.regularizer = RegularizerKind::kL2;
    config.lambda = lambda;
    const Status status = ValidateTrainerConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << lambda;
    EXPECT_NE(status.message().find("lambda"), std::string::npos);
  }
}

TEST(TrainerConfigTest, RejectsNegativeMaxCommSteps) {
  for (int steps : {-1, -100}) {
    TrainerConfig config;
    config.max_comm_steps = steps;
    const Status status = ValidateTrainerConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << steps;
    EXPECT_NE(status.message().find("max_comm_steps"), std::string::npos);
  }
}

TEST(TrainerConfigTest, RejectsNanTargetObjective) {
  // No objective compares <= NaN, so the target could never stop a run.
  TrainerConfig config;
  config.target_objective = std::numeric_limits<double>::quiet_NaN();
  const Status status = ValidateTrainerConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("target_objective"), std::string::npos);
}

TEST(TrainerConfigTest, RejectsEvalEveryBelowOne) {
  // The trainers evaluate when the step count is a multiple of
  // eval_every; 0 would divide by zero.
  for (int eval_every : {0, -1}) {
    TrainerConfig config;
    config.eval_every = eval_every;
    const Status status = ValidateTrainerConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << eval_every;
    EXPECT_NE(status.message().find("eval_every"), std::string::npos);
  }
}

TEST(TrainerConfigTest, RejectsBatchFractionNotFiniteAndPositive) {
  // fraction × rows is cast to a row count, which is undefined for a
  // negative or NaN product.
  const double inf = std::numeric_limits<double>::infinity();
  for (double fraction : {0.0, -0.0, -0.25, -inf, inf,
                          std::numeric_limits<double>::quiet_NaN()}) {
    TrainerConfig config;
    config.batch_fraction = fraction;
    const Status status = ValidateTrainerConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << fraction;
    EXPECT_NE(status.message().find("batch_fraction"), std::string::npos);
  }
}

TEST(TrainerConfigTest, RejectsNoPsShard) {
  // The PS context splits the model's range over the shards.
  TrainerConfig config;
  config.ps.num_shards = 0;
  const Status status = ValidateTrainerConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_shards"), std::string::npos);
}

TEST(TrainerConfigTest, RejectsNegativeStaleness) {
  // Round t waits on everyone's round t - 1 - staleness; a negative
  // bound would wait on rounds not yet run.
  for (int staleness : {-1, -5}) {
    TrainerConfig config;
    config.ps.staleness = staleness;
    const Status status = ValidateTrainerConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << staleness;
    EXPECT_NE(status.message().find("ps.staleness"), std::string::npos);
  }
  for (int staleness : {0, 2, 8}) {
    TrainerConfig config;
    config.ps.staleness = staleness;
    EXPECT_TRUE(ValidateTrainerConfig(config).ok()) << staleness;
  }
}

TEST(TrainerConfigTest, HugeBatchFractionTakesWholePartitions) {
  // fraction × rows far beyond any size_t is capped at the partition
  // before the cast, so it trains exactly as a fraction of 1 does.
  const Dataset data = SmallData();
  TrainerConfig whole = BaseConfig();
  whole.batch_fraction = 1.0;
  TrainerConfig huge = whole;
  huge.batch_fraction = 1e300;
  const TrainResult a =
      MakeTrainer(SystemKind::kMllib, whole)->Train(data, SmallCluster());
  const TrainResult b =
      MakeTrainer(SystemKind::kMllib, huge)->Train(data, SmallCluster());
  ASSERT_EQ(a.final_weights.dim(), b.final_weights.dim());
  for (size_t i = 0; i < a.final_weights.dim(); ++i) {
    EXPECT_EQ(a.final_weights[i], b.final_weights[i]) << i;
  }
}

TEST(TrainerConfigDeathTest, EveryTrainerChecksItsConfig) {
  TrainerConfig config;
  config.eval_every = 0;
  EXPECT_DEATH(MakeTrainer(SystemKind::kPetuum, config), "eval_every");
  config = TrainerConfig();
  config.batch_fraction = -0.5;
  EXPECT_DEATH(MakeTrainer(SystemKind::kMllib, config), "batch_fraction");
}

}  // namespace
}  // namespace mllibstar
