#include "train/trainer.h"

#include <gtest/gtest.h>

#include <fstream>

#include "data/synthetic.h"
#include "train/grid_search.h"
#include "train/report.h"

namespace mllibstar {
namespace {

Dataset SmallData() {
  SyntheticSpec spec;
  spec.name = "small";
  spec.num_instances = 800;
  spec.num_features = 100;
  spec.avg_nnz = 8;
  spec.seed = 77;
  return GenerateSynthetic(spec);
}

ClusterConfig SmallCluster() {
  ClusterConfig config = ClusterConfig::Cluster1(4);
  config.straggler_sigma = 0.0;
  return config;
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.5;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 15;
  config.seed = 5;
  return config;
}

TEST(SystemNameTest, AllNamed) {
  EXPECT_EQ(SystemName(SystemKind::kMllib), "mllib");
  EXPECT_EQ(SystemName(SystemKind::kMllibMa), "mllib+ma");
  EXPECT_EQ(SystemName(SystemKind::kMllibStar), "mllib*");
  EXPECT_EQ(SystemName(SystemKind::kPetuum), "petuum");
  EXPECT_EQ(SystemName(SystemKind::kPetuumStar), "petuum*");
  EXPECT_EQ(SystemName(SystemKind::kAngel), "angel");
}

TEST(SystemNameTest, EveryNameParsesBackToItsKind) {
  for (SystemKind kind :
       {SystemKind::kMllib, SystemKind::kMllibMa, SystemKind::kMllibStar,
        SystemKind::kPetuum, SystemKind::kPetuumStar, SystemKind::kAngel,
        SystemKind::kMllibLbfgs}) {
    const Result<SystemKind> parsed = SystemFromName(SystemName(kind));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, kind);
  }
  const Result<SystemKind> unknown = SystemFromName("bogus");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("'bogus'"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("mllib-lbfgs"),
            std::string::npos);
}

TEST(MakeTrainerTest, NamesMatchKinds) {
  for (SystemKind kind :
       {SystemKind::kMllib, SystemKind::kMllibMa, SystemKind::kMllibStar,
        SystemKind::kPetuum, SystemKind::kPetuumStar, SystemKind::kAngel}) {
    auto trainer = MakeTrainer(kind, BaseConfig());
    ASSERT_NE(trainer, nullptr);
    EXPECT_EQ(trainer->name(), SystemName(kind));
  }
}

// Parameterized: every system reduces the objective on learnable data.
class AllSystemsTest : public testing::TestWithParam<SystemKind> {};

TEST_P(AllSystemsTest, ObjectiveDecreases) {
  const Dataset data = SmallData();
  auto trainer = MakeTrainer(GetParam(), BaseConfig());
  const TrainResult result = trainer->Train(data, SmallCluster());
  ASSERT_FALSE(result.curve.empty());
  EXPECT_FALSE(result.diverged);
  const double initial = result.curve.points().front().objective;
  EXPECT_LT(result.curve.BestObjective(), initial * 0.9)
      << SystemName(GetParam());
  EXPECT_GT(result.comm_steps, 0);
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_GT(result.total_bytes, 0u);
}

TEST_P(AllSystemsTest, DeterministicAcrossRuns) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 5;
  const TrainResult a = MakeTrainer(GetParam(), config)->Train(
      data, SmallCluster());
  const TrainResult b = MakeTrainer(GetParam(), config)->Train(
      data, SmallCluster());
  ASSERT_EQ(a.curve.points().size(), b.curve.points().size());
  for (size_t i = 0; i < a.curve.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve.points()[i].objective,
                     b.curve.points()[i].objective);
    EXPECT_DOUBLE_EQ(a.curve.points()[i].time_sec,
                     b.curve.points()[i].time_sec);
  }
}

TEST_P(AllSystemsTest, RespectsMaxCommSteps) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 3;
  const TrainResult result =
      MakeTrainer(GetParam(), config)->Train(data, SmallCluster());
  EXPECT_LE(result.comm_steps, 3);
}

TEST_P(AllSystemsTest, TargetObjectiveStopsEarly) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 50;
  config.target_objective = 1e9;  // trivially reached at first eval
  const TrainResult result =
      MakeTrainer(GetParam(), config)->Train(data, SmallCluster());
  EXPECT_EQ(result.comm_steps, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystemsTest,
    testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                    SystemKind::kMllibStar, SystemKind::kPetuum,
                    SystemKind::kPetuumStar, SystemKind::kAngel),
    [](const testing::TestParamInfo<SystemKind>& info) {
      std::string name = SystemName(info.param);
      for (char& c : name) {
        if (c == '*') c = 'S';
        if (c == '+') c = 'p';
      }
      return name;
    });

TEST(MllibVsStarTest, SendModelNeedsFewerStepsThanSendGradient) {
  // The paper's core finding (B1): one update per step (SendGradient)
  // converges far slower per communication step than a full local
  // pass (SendModel).
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 40;
  const TrainResult mllib =
      MakeTrainer(SystemKind::kMllib, config)->Train(data, SmallCluster());
  const TrainResult star = MakeTrainer(SystemKind::kMllibStar, config)
                               ->Train(data, SmallCluster());
  const double target =
      TargetObjective({mllib.curve, star.curve}, 0.05);
  const auto star_steps = star.curve.StepsToReach(target);
  ASSERT_TRUE(star_steps.has_value());
  const auto mllib_steps = mllib.curve.StepsToReach(target);
  if (mllib_steps.has_value()) {
    EXPECT_GT(*mllib_steps, *star_steps);
  }
  // And in (simulated) time the gap is at least as large.
  const auto speedup = SpeedupAtTarget(mllib.curve, star.curve, target);
  if (speedup.has_value()) {
    EXPECT_GT(*speedup, 1.0);
  }
}

TEST(MllibVsStarTest, PerStepBytesMatchBetweenMaAndStar) {
  // Paper §IV-B2: the two-phase shuffle does not increase the data
  // exchanged per step relative to the driver-centric pattern (~2km).
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 4;
  const TrainResult ma =
      MakeTrainer(SystemKind::kMllibMa, config)->Train(data, SmallCluster());
  const TrainResult star = MakeTrainer(SystemKind::kMllibStar, config)
                               ->Train(data, SmallCluster());
  const double ma_per_step =
      static_cast<double>(ma.total_bytes) / ma.comm_steps;
  const double star_per_step =
      static_cast<double>(star.total_bytes) / star.comm_steps;
  EXPECT_NEAR(star_per_step / ma_per_step, 1.0, 0.35);
  // ...while the step latency is strictly better.
  EXPECT_LT(star.sim_seconds / star.comm_steps,
            ma.sim_seconds / ma.comm_steps);
}

TEST(MllibStarTest, ManyUpdatesPerCommStep) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 5;
  const TrainResult mllib =
      MakeTrainer(SystemKind::kMllib, config)->Train(data, SmallCluster());
  const TrainResult star = MakeTrainer(SystemKind::kMllibStar, config)
                               ->Train(data, SmallCluster());
  // MLlib: exactly one global update per step.
  EXPECT_EQ(mllib.total_model_updates,
            static_cast<uint64_t>(mllib.comm_steps));
  // MLlib*: one update per data point per worker pass.
  EXPECT_GT(star.total_model_updates, mllib.total_model_updates * 50);
}

TEST(PetuumTest, SummationIsMoreAggressiveThanAveraging) {
  // With a large learning rate, summing k deltas multiplies the
  // effective step by k: Petuum diverges where Petuum* stays stable
  // (paper §IV-B1 remark and [15]).
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.base_lr = 8.0;
  config.batch_fraction = 0.5;
  config.max_comm_steps = 25;
  const TrainResult sum =
      MakeTrainer(SystemKind::kPetuum, config)->Train(data, SmallCluster());
  const TrainResult avg = MakeTrainer(SystemKind::kPetuumStar, config)
                              ->Train(data, SmallCluster());
  EXPECT_FALSE(avg.diverged);
  // Either outright divergence or a much worse objective.
  if (!sum.diverged) {
    EXPECT_GT(sum.curve.FinalObjective(),
              avg.curve.FinalObjective() * 0.99);
  }
}

TEST(AngelTest, PerEpochCommunicationDoesMoreLocalWorkPerStep) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 5;
  const TrainResult petuum =
      MakeTrainer(SystemKind::kPetuum, config)->Train(data, SmallCluster());
  const TrainResult angel =
      MakeTrainer(SystemKind::kAngel, config)->Train(data, SmallCluster());
  // Angel applies ~1/batch_fraction local updates per comm step; the
  // regularizer-free Petuum applies one batch of SGD updates.
  EXPECT_GT(angel.total_model_updates / angel.comm_steps, 1u);
}

TEST(PsConsistencyTest, SspToleratesStragglersBetterThanBsp) {
  const Dataset data = SmallData();
  ClusterConfig cluster = ClusterConfig::Cluster2(4);  // heavy jitter
  TrainerConfig bsp_config = BaseConfig();
  bsp_config.max_comm_steps = 10;
  bsp_config.ps.staleness = 0;
  TrainerConfig ssp_config = bsp_config;
  ssp_config.ps.staleness = 3;
  const TrainResult bsp =
      MakeTrainer(SystemKind::kPetuumStar, bsp_config)->Train(data, cluster);
  const TrainResult ssp =
      MakeTrainer(SystemKind::kPetuumStar, ssp_config)->Train(data, cluster);
  // Identical local work, but SSP spends less time blocked.
  EXPECT_LE(ssp.sim_seconds, bsp.sim_seconds + 1e-9);
}

TEST(TraceTest, MllibTraceShowsDriverActivity) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 3;
  const TrainResult result =
      MakeTrainer(SystemKind::kMllib, config)->Train(data, SmallCluster());
  bool driver_updates = false;
  for (const TraceEvent& e : result.trace.events()) {
    if (e.node == "driver" && e.kind == ActivityKind::kUpdate) {
      driver_updates = true;
    }
  }
  EXPECT_TRUE(driver_updates);
}

TEST(TraceTest, MllibStarTraceHasNoDriverWork) {
  const Dataset data = SmallData();
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 3;
  const TrainResult result = MakeTrainer(SystemKind::kMllibStar, config)
                                 ->Train(data, SmallCluster());
  for (const TraceEvent& e : result.trace.events()) {
    EXPECT_NE(e.node, "driver");
  }
}

TEST(GridSearchTest, FindsBetterThanWorstCandidate) {
  const Dataset data = SmallData();
  TrainerConfig base = BaseConfig();
  GridSearchSpec spec;
  spec.learning_rates = {1e-6, 0.5};  // one useless, one good
  spec.batch_fractions = {0.1};
  spec.trial_comm_steps = 8;
  const GridSearchOutcome outcome =
      GridSearch(SystemKind::kMllibStar, base, spec, data, SmallCluster());
  EXPECT_EQ(outcome.candidates_evaluated, 2u);
  EXPECT_DOUBLE_EQ(outcome.best_config.base_lr, 0.5);
  // The returned config restores the caller's step budget.
  EXPECT_EQ(outcome.best_config.max_comm_steps, base.max_comm_steps);
}

TEST(GridSearchTest, SearchesStalenessForPsSystems) {
  const Dataset data = SmallData();
  TrainerConfig base = BaseConfig();
  GridSearchSpec spec;
  spec.learning_rates = {0.5};
  spec.batch_fractions = {0.1};
  spec.stalenesses = {0, 2};
  spec.trial_comm_steps = 4;
  const GridSearchOutcome outcome =
      GridSearch(SystemKind::kPetuumStar, base, spec, data, SmallCluster());
  EXPECT_EQ(outcome.candidates_evaluated, 2u);
}

TEST(ReportTest, WriteCurvesCsv) {
  ConvergenceCurve curve("sys");
  curve.Add(0, 0.0, 1.0);
  curve.Add(1, 2.0, 0.5);
  const std::string path = testing::TempDir() + "/curves.csv";
  ASSERT_TRUE(WriteCurvesCsv(path, {curve}).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "system,comm_step,time_sec,objective");
  std::getline(in, line);
  EXPECT_EQ(line, "sys,0,0,1");
}

TEST(ReportTest, TargetObjectiveIsOptimumPlusLoss) {
  ConvergenceCurve a("a");
  a.Add(0, 0.0, 0.8);
  a.Add(1, 1.0, 0.3);
  ConvergenceCurve b("b");
  b.Add(0, 0.0, 0.9);
  b.Add(1, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(TargetObjective({a, b}, 0.01), 0.31);
}

TEST(ReportTest, ComparisonRowMentionsAllSystems) {
  ConvergenceCurve a("alpha");
  a.Add(1, 2.0, 0.1);
  ConvergenceCurve b("beta");
  b.Add(1, 2.0, 0.9);
  const std::string row = ComparisonRow({a, b}, 0.2);
  EXPECT_NE(row.find("alpha"), std::string::npos);
  EXPECT_NE(row.find("beta: n/a"), std::string::npos);
}

}  // namespace
}  // namespace mllibstar
