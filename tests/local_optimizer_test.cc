#include "core/local_optimizer.h"

#include <gtest/gtest.h>

#include "core/csr_block.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "train/trainer.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

SparseVector OneHot(FeatureIndex index, double value = 1.0) {
  SparseVector x;
  x.Push(index, value);
  return x;
}

TEST(LocalOptimizerFactoryTest, KindsAndNames) {
  LocalOptimizerConfig config;
  for (auto [kind, name] :
       {std::pair{LocalOptimizerKind::kSgd, "sgd"},
        std::pair{LocalOptimizerKind::kMomentum, "momentum"},
        std::pair{LocalOptimizerKind::kAdagrad, "adagrad"},
        std::pair{LocalOptimizerKind::kAdam, "adam"}}) {
    config.kind = kind;
    auto opt = MakeLocalOptimizer(config, 4);
    EXPECT_EQ(opt->kind(), kind);
    EXPECT_EQ(opt->name(), name);
  }
}

TEST(LocalOptimizerFactoryTest, FromName) {
  EXPECT_EQ(LocalOptimizerKindFromName("momentum"),
            LocalOptimizerKind::kMomentum);
  EXPECT_EQ(LocalOptimizerKindFromName("adagrad"),
            LocalOptimizerKind::kAdagrad);
  EXPECT_EQ(LocalOptimizerKindFromName("adam"), LocalOptimizerKind::kAdam);
  EXPECT_EQ(LocalOptimizerKindFromName("anything"),
            LocalOptimizerKind::kSgd);
}

TEST(SgdRuleTest, PlainStep) {
  auto opt = MakeLocalOptimizer({}, 3);
  DenseVector w(3);
  const uint64_t work = opt->ApplyUpdate(OneHot(1, 2.0), 0.5, 0.1, &w);
  EXPECT_DOUBLE_EQ(w[1], -0.1 * 0.5 * 2.0);
  EXPECT_EQ(work, 1u);
  // Zero derivative is free.
  EXPECT_EQ(opt->ApplyUpdate(OneHot(1), 0.0, 0.1, &w), 0u);
}

TEST(MomentumRuleTest, VelocityAccumulates) {
  LocalOptimizerConfig config;
  config.kind = LocalOptimizerKind::kMomentum;
  config.momentum = 0.5;
  auto opt = MakeLocalOptimizer(config, 2);
  DenseVector w(2);
  // Two consecutive unit-gradient updates on the same coordinate:
  // v1 = 1, v2 = 0.5*1 + 1 = 1.5; steps -lr*v.
  opt->ApplyUpdate(OneHot(0), 1.0, 0.1, &w);
  EXPECT_NEAR(w[0], -0.1, 1e-12);
  opt->ApplyUpdate(OneHot(0), 1.0, 0.1, &w);
  EXPECT_NEAR(w[0], -0.1 - 0.15, 1e-12);
}

TEST(MomentumRuleTest, LazyDecayAcrossGaps) {
  LocalOptimizerConfig config;
  config.kind = LocalOptimizerKind::kMomentum;
  config.momentum = 0.5;
  auto opt = MakeLocalOptimizer(config, 2);
  DenseVector w(2);
  opt->ApplyUpdate(OneHot(0), 1.0, 1.0, &w);  // v0 = 1
  // Two updates touching the *other* coordinate advance the step
  // counter, decaying coordinate 0's velocity by 0.5^2 when revisited.
  opt->ApplyUpdate(OneHot(1), 1.0, 1.0, &w);
  opt->ApplyUpdate(OneHot(1), 1.0, 1.0, &w);
  const double before = w[0];
  opt->ApplyUpdate(OneHot(0), 0.0, 1.0, &w);  // d=0: no touch
  EXPECT_DOUBLE_EQ(w[0], before);
  opt->ApplyUpdate(OneHot(0), 1.0, 1.0, &w);
  // Four steps elapsed since the last touch (the zero-derivative call
  // advances the step clock too): v = 1 * 0.5^4 + 1 = 1.0625.
  EXPECT_NEAR(w[0], before - 1.0625, 1e-12);
}

TEST(AdagradRuleTest, StepsShrinkWithAccumulatedGradient) {
  LocalOptimizerConfig config;
  config.kind = LocalOptimizerKind::kAdagrad;
  config.epsilon = 0.0;
  auto opt = MakeLocalOptimizer(config, 1);
  DenseVector w(1);
  opt->ApplyUpdate(OneHot(0), 1.0, 1.0, &w);
  const double first_step = -w[0];  // 1/sqrt(1) = 1
  EXPECT_NEAR(first_step, 1.0, 1e-12);
  const double before = w[0];
  opt->ApplyUpdate(OneHot(0), 1.0, 1.0, &w);
  const double second_step = before - w[0];  // 1/sqrt(2)
  EXPECT_NEAR(second_step, 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_LT(second_step, first_step);
}

TEST(AdamRuleTest, FirstStepIsLearningRateSized) {
  LocalOptimizerConfig config;
  config.kind = LocalOptimizerKind::kAdam;
  config.epsilon = 0.0;
  auto opt = MakeLocalOptimizer(config, 1);
  DenseVector w(1);
  // With bias correction, the first Adam step is exactly lr * sign(g).
  opt->ApplyUpdate(OneHot(0), 2.0, 0.01, &w);
  EXPECT_NEAR(w[0], -0.01, 1e-9);
}

TEST(AdamRuleTest, InvariantToGradientScale) {
  // Adam normalizes by the second moment: scaling all gradients by 10
  // leaves the trajectory (nearly) unchanged.
  for (double scale : {1.0, 10.0}) {
    LocalOptimizerConfig config;
    config.kind = LocalOptimizerKind::kAdam;
    auto opt = MakeLocalOptimizer(config, 1);
    DenseVector w(1);
    for (int i = 0; i < 5; ++i) {
      opt->ApplyUpdate(OneHot(0), scale, 0.1, &w);
    }
    EXPECT_NEAR(w[0], -0.5, 1e-3) << "scale=" << scale;
  }
}

// Every rule should train the separable toy problem via the epoch
// driver, including with lazy L2 weight decay.
class OptimizerEpochTest
    : public testing::TestWithParam<LocalOptimizerKind> {};

TEST_P(OptimizerEpochTest, ConvergesOnSeparableData) {
  SyntheticSpec spec;
  spec.name = "opt";
  spec.num_instances = 400;
  spec.num_features = 50;
  spec.avg_nnz = 5;
  spec.seed = 71;
  const Dataset data = GenerateSynthetic(spec);

  auto loss = MakeLoss(LossKind::kLogistic);
  auto reg = MakeRegularizer(RegularizerKind::kL2, 0.001);
  LocalOptimizerConfig config;
  config.kind = GetParam();
  auto opt = MakeLocalOptimizer(config, data.num_features());
  const CsrBlock block = CsrBlock::FromPoints(data.points());
  const auto objective = MakeBinaryObjective(loss.get(), reg.get(), true);
  DenseVector w(data.num_features());
  Rng rng(5);
  for (int epoch = 0; epoch < 15; ++epoch) {
    objective->OptimizerEpoch(block, 0.1, opt.get(), &rng, &w);
  }
  EXPECT_GT(Accuracy(data.points(), w), 0.85)
      << MakeLocalOptimizer(config, 1)->name();
}

INSTANTIATE_TEST_SUITE_P(AllRules, OptimizerEpochTest,
                         testing::Values(LocalOptimizerKind::kSgd,
                                         LocalOptimizerKind::kMomentum,
                                         LocalOptimizerKind::kAdagrad,
                                         LocalOptimizerKind::kAdam),
                         [](const auto& info) {
                           LocalOptimizerConfig c;
                           c.kind = info.param;
                           return MakeLocalOptimizer(c, 1)->name();
                         });

TEST(OptimizerEpochTest, SgdRuleMatchesPlainSgdEpochWithoutReg) {
  SyntheticSpec spec;
  spec.name = "eq";
  spec.num_instances = 100;
  spec.num_features = 30;
  spec.avg_nnz = 4;
  spec.seed = 73;
  const Dataset data = GenerateSynthetic(spec);
  auto loss = MakeLoss(LossKind::kLogistic);
  auto reg = MakeRegularizer(RegularizerKind::kNone, 0.0);

  DenseVector w1(data.num_features());
  DenseVector w2(data.num_features());
  Rng r1(9);
  Rng r2(9);
  auto opt = MakeLocalOptimizer({}, data.num_features());
  const CsrBlock block = CsrBlock::FromPoints(data.points());
  const auto objective = MakeBinaryObjective(loss.get(), reg.get(), true);
  objective->SgdEpoch(block, 0.2, &r1, &w1);
  objective->OptimizerEpoch(block, 0.2, opt.get(), &r2, &w2);
  for (size_t i = 0; i < w1.dim(); ++i) {
    EXPECT_DOUBLE_EQ(w1[i], w2[i]);
  }
}

TEST(OptimizerTrainerTest, MllibStarWithAdamTrains) {
  SyntheticSpec spec;
  spec.name = "adam-star";
  spec.num_instances = 500;
  spec.num_features = 60;
  spec.avg_nnz = 6;
  spec.seed = 77;
  const Dataset data = GenerateSynthetic(spec);
  ClusterConfig cluster = ClusterConfig::Cluster1(4);
  cluster.straggler_sigma = 0.0;

  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.05;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.max_comm_steps = 10;
  config.local_optimizer.kind = LocalOptimizerKind::kAdam;
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, cluster);
  EXPECT_FALSE(result.diverged);
  EXPECT_LT(result.curve.BestObjective(),
            result.curve.points().front().objective * 0.7);
}

}  // namespace
}  // namespace mllibstar
