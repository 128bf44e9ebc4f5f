#include "core/gd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "core/model.h"
#include "data/synthetic.h"

namespace mllibstar {
namespace {

DataPoint MakePoint(double label, std::vector<FeatureIndex> indices,
                    std::vector<double> values) {
  DataPoint p;
  p.label = label;
  p.features.indices = std::move(indices);
  p.features.values = std::move(values);
  return p;
}

// A tiny linearly separable problem in 2D: label = sign(x0 - x1).
std::vector<DataPoint> SeparableProblem() {
  return {
      MakePoint(1.0, {0}, {1.0}),          MakePoint(1.0, {0, 1}, {2.0, 0.5}),
      MakePoint(-1.0, {1}, {1.0}),         MakePoint(-1.0, {0, 1}, {0.5, 2.0}),
      MakePoint(1.0, {0, 1}, {1.5, 0.2}),  MakePoint(-1.0, {0, 1}, {0.2, 1.5}),
  };
}

TEST(SampleBatchTest, FullBatchWhenOversized) {
  Rng rng(1);
  const auto batch = SampleBatch(5, 10, &rng);
  ASSERT_EQ(batch.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NE(std::find(batch.begin(), batch.end(), i), batch.end());
  }
}

TEST(SampleBatchTest, NoDuplicatesSmallBatch) {
  Rng rng(2);
  const auto batch = SampleBatch(1000, 10, &rng);
  ASSERT_EQ(batch.size(), 10u);
  std::set<size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t idx : batch) EXPECT_LT(idx, 1000u);
}

TEST(SampleBatchTest, NoDuplicatesLargeBatch) {
  Rng rng(3);
  const auto batch = SampleBatch(20, 15, &rng);  // triggers pool path
  ASSERT_EQ(batch.size(), 15u);
  std::set<size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 15u);
}

TEST(BatchGradientTest, MatchesHandComputedLogistic) {
  auto loss = MakeLoss(LossKind::kLogistic);
  const auto points = SeparableProblem();
  DenseVector w(2);
  DenseVector grad(2);
  std::vector<size_t> batch = {0, 2};
  const ComputeStats stats =
      AccumulateBatchGradient(points, batch, *loss, w, &grad);
  // At w=0, derivative = -y * 0.5; gradient = sum of d * x.
  EXPECT_NEAR(grad[0], -0.5 * 1.0, 1e-12);
  EXPECT_NEAR(grad[1], 0.5 * 1.0, 1e-12);
  EXPECT_GT(stats.nnz_processed, 0u);
}

TEST(BatchGradientTest, HingeSkipsCorrectWideMargins) {
  auto loss = MakeLoss(LossKind::kHinge);
  const auto points = SeparableProblem();
  DenseVector w(std::vector<double>{10.0, -10.0});  // classifies everything
  DenseVector grad(2);
  std::vector<size_t> batch = {0, 1, 2, 3, 4, 5};
  AccumulateBatchGradient(points, batch, *loss, w, &grad);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
}

TEST(ScaledVectorTest, ShrinkIsMultiplicative) {
  ScaledVector v(DenseVector(std::vector<double>{2.0, 4.0}));
  v.Shrink(0.5);
  const DenseVector dense = v.ToDense();
  EXPECT_DOUBLE_EQ(dense[0], 1.0);
  EXPECT_DOUBLE_EQ(dense[1], 2.0);
}

TEST(ScaledVectorTest, AddAfterShrinkIsExact) {
  ScaledVector v(DenseVector(std::vector<double>{1.0, 1.0}));
  v.Shrink(0.25);
  SparseVector x;
  x.Push(0, 2.0);
  v.AddScaled(x, 1.0);
  const DenseVector dense = v.ToDense();
  EXPECT_DOUBLE_EQ(dense[0], 0.25 + 2.0);
  EXPECT_DOUBLE_EQ(dense[1], 0.25);
}

TEST(ScaledVectorTest, SurvivesScaleUnderflowByMaterializing) {
  ScaledVector v(DenseVector(std::vector<double>{1.0}));
  for (int i = 0; i < 5000; ++i) v.Shrink(0.99);
  SparseVector x;
  x.Push(0, 1.0);
  v.AddScaled(x, 1.0);
  const DenseVector dense = v.ToDense();
  EXPECT_TRUE(std::isfinite(dense[0]));
  EXPECT_NEAR(dense[0], 1.0, 1e-6);  // the shrunk part is ~1e-22
}

TEST(ScaledVectorTest, DotMatchesDense) {
  ScaledVector v(DenseVector(std::vector<double>{3.0, -2.0}));
  v.Shrink(0.5);
  SparseVector x;
  x.Push(0, 1.0);
  x.Push(1, 1.0);
  EXPECT_DOUBLE_EQ(v.Dot(x), 0.5);
}

TEST(LocalSgdEpochTest, ReducesLossOnSeparableData) {
  auto loss = MakeLoss(LossKind::kLogistic);
  auto reg = MakeRegularizer(RegularizerKind::kNone, 0.0);
  const auto points = SeparableProblem();
  DenseVector w(2);
  Rng rng(5);
  const double before = MeanLoss(points, *loss, w);
  ComputeStats stats;
  for (int epoch = 0; epoch < 20; ++epoch) {
    stats += LocalSgdEpoch(points, *loss, *reg, 0.5, true, &rng, &w);
  }
  const double after = MeanLoss(points, *loss, w);
  EXPECT_LT(after, before * 0.5);
  EXPECT_EQ(stats.model_updates, 20u * points.size());
  EXPECT_GT(Accuracy(points, w), 0.99);
}

TEST(LocalSgdEpochTest, LazyAndEagerL2AgreeNumerically) {
  auto loss = MakeLoss(LossKind::kLogistic);
  auto reg = MakeRegularizer(RegularizerKind::kL2, 0.1);
  const auto points = SeparableProblem();

  DenseVector w_lazy(2);
  DenseVector w_eager(2);
  Rng rng_lazy(7);
  Rng rng_eager(7);  // same shuffle order
  for (int epoch = 0; epoch < 5; ++epoch) {
    LocalSgdEpoch(points, *loss, *reg, 0.1, true, &rng_lazy, &w_lazy);
    LocalSgdEpoch(points, *loss, *reg, 0.1, false, &rng_eager, &w_eager);
  }
  EXPECT_NEAR(w_lazy[0], w_eager[0], 1e-9);
  EXPECT_NEAR(w_lazy[1], w_eager[1], 1e-9);
}

TEST(LocalSgdEpochTest, LazyL2ChargesLessWorkThanEager) {
  auto loss = MakeLoss(LossKind::kLogistic);
  auto reg = MakeRegularizer(RegularizerKind::kL2, 0.1);
  // High-dimensional sparse points: eager pays O(d) per update.
  std::vector<DataPoint> points;
  for (int i = 0; i < 10; ++i) {
    points.push_back(MakePoint(i % 2 == 0 ? 1.0 : -1.0,
                               {static_cast<FeatureIndex>(i)}, {1.0}));
  }
  const size_t dim = 10000;
  DenseVector w1(dim);
  DenseVector w2(dim);
  Rng r1(9);
  Rng r2(9);
  const ComputeStats lazy = LocalSgdEpoch(points, *loss, *reg, 0.1, true,
                                          &r1, &w1);
  const ComputeStats eager = LocalSgdEpoch(points, *loss, *reg, 0.1, false,
                                           &r2, &w2);
  EXPECT_LT(lazy.nnz_processed * 100, eager.nnz_processed);
}

TEST(LocalSgdEpochTest, EmptyDataIsNoOp) {
  auto loss = MakeLoss(LossKind::kHinge);
  auto reg = MakeRegularizer(RegularizerKind::kNone, 0.0);
  std::vector<DataPoint> points;
  DenseVector w(3);
  Rng rng(1);
  const ComputeStats stats =
      LocalSgdEpoch(points, *loss, *reg, 0.1, true, &rng, &w);
  EXPECT_EQ(stats.model_updates, 0u);
  EXPECT_EQ(stats.nnz_processed, 0u);
}

TEST(LocalMiniBatchGdTest, OneBatchOneUpdate) {
  auto loss = MakeLoss(LossKind::kLogistic);
  auto reg = MakeRegularizer(RegularizerKind::kNone, 0.0);
  const auto points = SeparableProblem();
  DenseVector w(2);
  Rng rng(11);
  const ComputeStats stats = LocalMiniBatchGd(points, *loss, *reg, 0.1,
                                              points.size(), 1, &rng, &w);
  EXPECT_EQ(stats.model_updates, 1u);
}

TEST(LocalMiniBatchGdTest, ConvergesOnSeparableData) {
  auto loss = MakeLoss(LossKind::kHinge);
  auto reg = MakeRegularizer(RegularizerKind::kL2, 0.01);
  const auto points = SeparableProblem();
  DenseVector w(2);
  Rng rng(13);
  LocalMiniBatchGd(points, *loss, *reg, 0.2, 3, 200, &rng, &w);
  EXPECT_GT(Accuracy(points, w), 0.99);
}

// ------------------------------------- MiniBatchGd vs the dense reference
// LocalMiniBatchGd flushes its batch gradient through a TouchedBuffer.
// The reference below is the dense loop it replaced, kept verbatim
// apart from calling the public kernels: zero the whole gradient,
// accumulate, apply the regularizer, add the whole gradient. Both must
// produce the same weight bits and the same work accounting.

// `softmax_classes` == 0 selects the binary kernels.
ComputeStats DenseReferenceMiniBatchGd(const CsrBlock& block,
                                       size_t softmax_classes, bool f32,
                                       const Loss& loss,
                                       const Regularizer& reg, double lr,
                                       size_t batch_size,
                                       size_t num_batches, Rng* rng,
                                       DenseVector* w) {
  ComputeStats stats;
  if (block.rows() == 0 || batch_size == 0) return stats;

  DenseVector gradient(w->dim());
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<size_t> batch =
        SampleBatch(block.rows(), batch_size, rng);
    gradient.SetZero();
    ComputeStats batch_stats;
    if (softmax_classes == 0) {
      batch_stats =
          f32 ? AccumulateBatchGradientF32(block, batch, loss, *w, &gradient)
              : AccumulateBatchGradient(block, batch, loss, *w, &gradient);
    } else {
      const size_t features = w->dim() / softmax_classes;
      batch_stats = f32 ? AccumulateBatchGradientSoftmaxF32(
                              block, batch, softmax_classes, features, *w,
                              &gradient)
                        : AccumulateBatchGradientSoftmax(
                              block, batch, softmax_classes, features, *w,
                              &gradient);
    }
    stats += batch_stats;
    const double inv_batch = 1.0 / static_cast<double>(batch.size());
    if (reg.kind() != RegularizerKind::kNone) {
      reg.ApplyGradientStep(w, lr);
      stats.nnz_processed += w->dim();
    }
    w->AddScaled(gradient, -lr * inv_batch);
    stats.nnz_processed += reg.kind() != RegularizerKind::kNone
                               ? w->dim()
                               : batch_stats.nnz_processed / 2;
    ++stats.model_updates;
  }
  return stats;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Nonzero starting weights with +0.0 and −0.0 scattered through them.
DenseVector StartWeights(size_t dim) {
  DenseVector w(dim);
  for (size_t i = 0; i < dim; ++i) {
    switch (i % 5) {
      case 0: w[i] = 0.0; break;
      case 1: w[i] = -0.0; break;
      default: w[i] = 0.01 * static_cast<double>(i % 13) - 0.05; break;
    }
  }
  return w;
}

TEST(LocalMiniBatchGdTest, TouchedFlushMatchesDenseReferenceBitForBit) {
  const size_t features = 2000;
  SyntheticSpec spec;
  spec.name = "minibatch";
  spec.num_instances = 400;
  spec.num_features = features;
  spec.avg_nnz = 8;
  spec.seed = 3;
  const CsrBlock binary =
      CsrBlock::FromPoints(GenerateSynthetic(spec).points());
  MulticlassSpec mspec;
  mspec.base = spec;
  mspec.num_classes = 3;
  const CsrBlock multi =
      CsrBlock::FromPoints(GenerateMulticlass(mspec).points());
  auto loss = MakeLoss(LossKind::kLogistic);

  // 4-row batches list ~32 coordinates per class block (the listed
  // sweep); 100-row batches list ~800 (the dense sweep), for binary
  // (dim 2000) and 3-class softmax (dim 6000) alike.
  for (size_t classes : {size_t{0}, size_t{3}}) {
    for (bool f32 : {false, true}) {
      for (RegularizerKind kind : {RegularizerKind::kNone,
                                   RegularizerKind::kL2,
                                   RegularizerKind::kL1}) {
        for (size_t batch_size : {size_t{4}, size_t{100}}) {
          SCOPED_TRACE(testing::Message()
                       << "classes " << classes << " f32 " << f32
                       << " reg " << static_cast<int>(kind) << " batch "
                       << batch_size);
          const CsrBlock& block = classes == 0 ? binary : multi;
          const size_t dim = classes == 0 ? features : classes * features;
          auto reg = MakeRegularizer(kind, 0.01);
          DenseVector w = StartWeights(dim);
          DenseVector ref_w = w;
          Rng rng(17);
          Rng ref_rng(17);
          ComputeStats stats;
          if (classes == 0) {
            stats = f32 ? LocalMiniBatchGdF32(block, *loss, *reg, 0.3,
                                              batch_size, 6, &rng, &w)
                        : LocalMiniBatchGd(block, *loss, *reg, 0.3,
                                           batch_size, 6, &rng, &w);
          } else {
            stats = f32 ? LocalMiniBatchGdSoftmaxF32(block, classes,
                                                     features, *reg, 0.3,
                                                     batch_size, 6, &rng, &w)
                        : LocalMiniBatchGdSoftmax(block, classes, features,
                                                  *reg, 0.3, batch_size, 6,
                                                  &rng, &w);
          }
          const ComputeStats ref = DenseReferenceMiniBatchGd(
              block, classes, f32, *loss, *reg, 0.3, batch_size, 6,
              &ref_rng, &ref_w);
          EXPECT_EQ(stats.nnz_processed, ref.nnz_processed);
          EXPECT_EQ(stats.model_updates, ref.model_updates);
          EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64());
          for (size_t i = 0; i < dim; ++i) {
            ASSERT_EQ(Bits(w[i]), Bits(ref_w[i])) << "coordinate " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mllibstar
