// Randomized property tests over cross-module invariants. Each case
// sweeps many random instances (deterministically seeded).
#include <gtest/gtest.h>

#include <cmath>

#include "core/convergence.h"
#include "core/csr_block.h"
#include "core/gd.h"
#include "core/lr_schedule.h"
#include "core/metrics.h"
#include "core/model.h"
#include "core/model_io.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "train/trainer.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

DenseVector RandomDense(size_t dim, Rng* rng) {
  DenseVector v(dim);
  for (size_t i = 0; i < dim; ++i) v[i] = rng->NextGaussian();
  return v;
}

std::vector<DataPoint> RandomPoints(size_t n, size_t dim, Rng* rng) {
  std::vector<DataPoint> points;
  for (size_t i = 0; i < n; ++i) {
    DataPoint p;
    p.label = rng->NextBool(0.5) ? 1.0 : -1.0;
    for (size_t j = 0; j < dim; j += 1 + rng->NextUint64(3)) {
      p.features.Push(static_cast<FeatureIndex>(j), rng->NextGaussian());
    }
    if (p.features.indices.empty()) p.features.Push(0, 1.0);
    points.push_back(std::move(p));
  }
  return points;
}

TEST(PropertyTest, AverageIsLinearAndIdempotent) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t dim = 1 + rng.NextUint64(40);
    const size_t count = 1 + rng.NextUint64(6);
    std::vector<DenseVector> vs;
    for (size_t i = 0; i < count; ++i) vs.push_back(RandomDense(dim, &rng));
    const DenseVector avg = Average(vs);
    // Sum of components equals average of sums.
    double sum_of_avg = 0.0;
    double sum_all = 0.0;
    for (size_t j = 0; j < dim; ++j) sum_of_avg += avg[j];
    for (const DenseVector& v : vs) {
      for (size_t j = 0; j < dim; ++j) sum_all += v[j];
    }
    EXPECT_NEAR(sum_of_avg, sum_all / count, 1e-9);
    // Averaging identical copies is the identity.
    std::vector<DenseVector> copies(3, vs[0]);
    const DenseVector same = Average(copies);
    for (size_t j = 0; j < dim; ++j) EXPECT_NEAR(same[j], vs[0][j], 1e-12);
  }
}

TEST(PropertyTest, ObjectiveIsConvexAlongRandomSegments) {
  // f(mid) <= (f(a) + f(b)) / 2 for convex losses + L2, for random
  // models a, b and random data.
  Rng rng(103);
  const Regularizer reg(RegularizerKind::kL2, 0.05);
  for (LossKind kind :
       {LossKind::kLogistic, LossKind::kHinge, LossKind::kSquared}) {
    const Loss loss(kind);
    for (int trial = 0; trial < 20; ++trial) {
      const size_t dim = 10 + rng.NextUint64(20);
      const CsrBlock rows = CsrBlock::FromPoints(RandomPoints(40, dim, &rng));
      const DenseVector a = RandomDense(dim, &rng);
      const DenseVector b = RandomDense(dim, &rng);
      DenseVector mid = a;
      mid.AddScaled(b, 1.0);
      mid.Scale(0.5);
      const double fa = Objective(rows, loss, reg, a);
      const double fb = Objective(rows, loss, reg, b);
      const double fm = Objective(rows, loss, reg, mid);
      EXPECT_LE(fm, 0.5 * (fa + fb) + 1e-9)
          << loss.name() << " trial " << trial;
    }
  }
}

TEST(PropertyTest, SgdEpochNeverTouchesUnseenCoordinates) {
  // Without regularization, coordinates outside the data's support
  // stay exactly zero.
  Rng rng(107);
  const GlmObjective objective(
      LossKind::kLogistic, Regularizer(RegularizerKind::kNone, 0.0), true);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t dim = 50;
    // Support only [0, 25).
    const CsrBlock block = CsrBlock::FromPoints(RandomPoints(30, 25, &rng));
    DenseVector w(dim);
    Rng epoch_rng(trial);
    objective.SgdEpoch(block, 0.3, &epoch_rng, &w);
    for (size_t j = 25; j < dim; ++j) {
      EXPECT_EQ(w[j], 0.0) << "j=" << j;
    }
  }
}

TEST(PropertyTest, SampleBatchIsUniformish) {
  // Every index should be drawn roughly equally often across repeats.
  Rng rng(109);
  const size_t n = 50;
  std::vector<int> counts(n, 0);
  const int repeats = 3000;
  for (int i = 0; i < repeats; ++i) {
    for (size_t idx : SampleBatch(n, 5, &rng)) counts[idx] += 1;
  }
  const double expected = repeats * 5.0 / n;
  for (size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(counts[j], expected, expected * 0.25) << "j=" << j;
  }
}

TEST(PropertyTest, LrSchedulesAreNonIncreasing) {
  for (double base : {0.01, 0.5, 10.0}) {
    const LrSchedule constant(LrScheduleKind::kConstant, base);
    const LrSchedule decay(LrScheduleKind::kInverseSqrt, base);
    double prev_c = 1e300;
    double prev_d = 1e300;
    for (uint64_t t = 0; t < 100; t += 7) {
      EXPECT_LE(constant.LrAt(t), prev_c);
      EXPECT_LE(decay.LrAt(t), prev_d);
      EXPECT_GT(decay.LrAt(t), 0.0);
      prev_c = constant.LrAt(t);
      prev_d = decay.LrAt(t);
    }
    EXPECT_DOUBLE_EQ(constant.LrAt(99), base);
    EXPECT_LT(decay.LrAt(99), base);
  }
}

TEST(PropertyTest, ModelIoRoundTripsRandomModels) {
  Rng rng(113);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t dim = 1 + rng.NextUint64(200);
    GlmModel model(dim);
    for (size_t j = 0; j < dim; ++j) {
      if (rng.NextBool(0.3)) {
        (*model.mutable_weights())[j] = rng.NextGaussian() * 1e3;
      }
    }
    const std::string path = testing::TempDir() + "/prop_model_" +
                             std::to_string(trial) + ".txt";
    ASSERT_TRUE(SaveModel(model, path).ok());
    auto loaded = LoadModel(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->dim(), dim);
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(loaded->weights()[j], model.weights()[j]);
    }
  }
}

TEST(PropertyTest, MetricsStayInBounds) {
  Rng rng(127);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t dim = 10 + rng.NextUint64(30);
    const auto points = RandomPoints(60, dim, &rng);
    const DenseVector w = RandomDense(dim, &rng);
    const ClassificationMetrics m =
        EvaluateClassifier(CsrBlock::FromPoints(points), w);
    for (double value : {m.accuracy, m.precision, m.recall, m.f1, m.auc}) {
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value, 1.0);
    }
    EXPECT_EQ(m.confusion.total(), points.size());
  }
}

TEST(PropertyTest, AucInvariantToMonotoneScoreTransforms) {
  Rng rng(131);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> scores;
    std::vector<double> labels;
    for (int i = 0; i < 50; ++i) {
      scores.push_back(rng.NextGaussian());
      labels.push_back(rng.NextBool(0.4) ? 1.0 : -1.0);
    }
    std::vector<double> transformed;
    for (double s : scores) transformed.push_back(std::exp(0.5 * s) + 3.0);
    EXPECT_NEAR(RocAuc(scores, labels), RocAuc(transformed, labels), 1e-12);
  }
}

TEST(PropertyTest, SplitsPartitionExactlyForRandomSizes) {
  Rng rng(137);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 1 + rng.NextUint64(300);
    Dataset data(10, "p");
    for (size_t i = 0; i < n; ++i) {
      DataPoint p;
      p.label = 1.0;
      p.features.Push(static_cast<FeatureIndex>(i % 10), 1.0);
      data.Add(p);
    }
    const TrainTestSplit random = RandomSplit(data, rng.NextDouble(), &rng);
    EXPECT_EQ(random.train.size() + random.test.size(), n);
  }
}

TEST(PropertyTest, ConvergenceCurveTimeToReachIsMonotoneInTarget) {
  Rng rng(139);
  ConvergenceCurve curve("c");
  double objective = 1.0;
  double time = 0.0;
  for (int i = 0; i < 40; ++i) {
    objective *= rng.NextDouble(0.8, 1.0);
    time += rng.NextDouble(0.1, 2.0);
    curve.Add(i, time, objective);
  }
  // Looser targets are reached no later than tighter ones.
  double prev_time = -1.0;
  for (double target = 1.0; target > objective; target *= 0.9) {
    const auto t = curve.TimeToReach(target);
    ASSERT_TRUE(t.has_value());
    EXPECT_GE(*t, prev_time);
    prev_time = *t;
  }
}

}  // namespace
}  // namespace mllibstar
