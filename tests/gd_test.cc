#include "core/gd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "common/fnv1a.h"
#include "core/csr_block.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "workloads/objective.h"

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

// The binary objective over `loss` and `reg`: the one entry into the
// GD kernels.
GlmObjective Binary(LossKind loss,
                    Regularizer reg = Regularizer(RegularizerKind::kNone, 0.0),
                    bool lazy_regularization = true) {
  return GlmObjective(loss, reg, lazy_regularization);
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

// FNV-1a digest of 20 consecutive batches drawn at (n, batch_size)
// from one Rng — each batch's size and its rows in draw order — then
// of the Rng's next draw. It moves if any row, the rows' order or the
// number of Rng draws a batch consumes changes.
uint64_t SampleDigest(size_t n, size_t batch_size) {
  Rng rng(17);
  uint64_t h = kFnv1aBasis;
  for (int call = 0; call < 20; ++call) {
    const std::vector<size_t> batch = SampleBatch(n, batch_size, &rng);
    Fnv1aMix(static_cast<uint64_t>(batch.size()), &h);
    for (size_t row : batch) Fnv1aMix(static_cast<uint64_t>(row), &h);
  }
  Fnv1aMix(rng.NextUint64(), &h);
  return h;
}

TEST(SampleBatchTest, DrawsArePinnedAtWorkloadShapes) {
  // Recorded with the hash-set Floyd sampler the bitmap replaced: the
  // figure workloads' (partition rows, batch size) shapes, plus one of
  // each other branch.
  const struct {
    size_t n;
    size_t batch_size;
    uint64_t digest;
  } cases[] = {
      {18705, 1870, 0x6ad729f52561db65ull},  // Floyd's draws: these six
      {18705, 187, 0x6a8113ffc61f06d4ull},
      {2408, 24, 0xc45d44bf5fab02edull},
      {2408, 120, 0x8c9fae353e0b6a05ull},
      {2408, 481, 0x6d404b91327db5b6ull},
      {1812, 72, 0x807153efb4605004ull},
      {2408, 602, 0xcd1b246e5bcb22a7ull},  // batch_size × 4 == n: Fisher–Yates
      {2408, 0, 0xad222aeca9e188d5ull},    // no draws, an empty batch
      {5, 10, 0x23d5d9999e1393d5ull},      // the whole partition
  };
  for (const auto& c : cases) {
    EXPECT_EQ(SampleDigest(c.n, c.batch_size), c.digest)
        << "n " << c.n << " batch_size " << c.batch_size;
  }
}

TEST(BatchGradientTest, MatchesHandComputedLogistic) {
  const CsrBlock block = CsrBlock::FromPoints(SeparableProblem());
  DenseVector w(2);
  DenseVector grad(2);
  std::vector<size_t> batch = {0, 2};
  const ComputeStats stats =
      Binary(LossKind::kLogistic).BatchGradient(block, batch, w, &grad);
  // At w=0, derivative = -y * 0.5; gradient = sum of d * x.
  EXPECT_NEAR(grad[0], -0.5 * 1.0, 1e-12);
  EXPECT_NEAR(grad[1], 0.5 * 1.0, 1e-12);
  EXPECT_GT(stats.nnz_processed, 0u);
}

TEST(BatchGradientTest, HingeSkipsCorrectWideMargins) {
  const CsrBlock block = CsrBlock::FromPoints(SeparableProblem());
  DenseVector w(std::vector<double>{10.0, -10.0});  // classifies everything
  DenseVector grad(2);
  std::vector<size_t> batch = {0, 1, 2, 3, 4, 5};
  Binary(LossKind::kHinge).BatchGradient(block, batch, w, &grad);
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
  const FeatureIndex index = 0;
  const double value = 2.0;
  v.AddScaled(&index, &value, 1, 1.0);
  const DenseVector dense = v.ToDense();
  EXPECT_DOUBLE_EQ(dense[0], 0.25 + 2.0);
  EXPECT_DOUBLE_EQ(dense[1], 0.25);
}

TEST(ScaledVectorTest, SurvivesScaleUnderflowByMaterializing) {
  ScaledVector v(DenseVector(std::vector<double>{1.0}));
  for (int i = 0; i < 5000; ++i) v.Shrink(0.99);
  const FeatureIndex index = 0;
  const double value = 1.0;
  v.AddScaled(&index, &value, 1, 1.0);
  const DenseVector dense = v.ToDense();
  EXPECT_TRUE(std::isfinite(dense[0]));
  EXPECT_NEAR(dense[0], 1.0, 1e-6);  // the shrunk part is ~1e-22
}

TEST(ScaledVectorTest, DotMatchesDense) {
  ScaledVector v(DenseVector(std::vector<double>{3.0, -2.0}));
  v.Shrink(0.5);
  const FeatureIndex indices[] = {0, 1};
  const double values[] = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(v.Dot(indices, values, 2), 0.5);
}

TEST(LocalSgdEpochTest, ReducesLossOnSeparableData) {
  const auto points = SeparableProblem();
  const CsrBlock block = CsrBlock::FromPoints(points);
  const GlmObjective objective = Binary(LossKind::kLogistic);
  DenseVector w(2);
  Rng rng(5);
  const double before = MeanLoss(block, objective.loss(), w);
  ComputeStats stats;
  for (int epoch = 0; epoch < 20; ++epoch) {
    stats += objective.SgdEpoch(block, 0.5, &rng, &w);
  }
  const double after = MeanLoss(block, objective.loss(), w);
  EXPECT_LT(after, before * 0.5);
  EXPECT_EQ(stats.model_updates, 20u * points.size());
  EXPECT_GT(Accuracy(block, w), 0.99);
}

TEST(LocalSgdEpochTest, LazyAndEagerL2AgreeNumerically) {
  const Regularizer reg(RegularizerKind::kL2, 0.1);
  const CsrBlock block = CsrBlock::FromPoints(SeparableProblem());
  const GlmObjective lazy = Binary(LossKind::kLogistic, reg, true);
  const GlmObjective eager = Binary(LossKind::kLogistic, reg, false);

  DenseVector w_lazy(2);
  DenseVector w_eager(2);
  Rng rng_lazy(7);
  Rng rng_eager(7);  // same shuffle order
  for (int epoch = 0; epoch < 5; ++epoch) {
    lazy.SgdEpoch(block, 0.1, &rng_lazy, &w_lazy);
    eager.SgdEpoch(block, 0.1, &rng_eager, &w_eager);
  }
  EXPECT_NEAR(w_lazy[0], w_eager[0], 1e-9);
  EXPECT_NEAR(w_lazy[1], w_eager[1], 1e-9);
}

TEST(LocalSgdEpochTest, LazyL2ChargesLessWorkThanEager) {
  const Regularizer reg(RegularizerKind::kL2, 0.1);
  // High-dimensional sparse points: eager pays O(d) per update.
  std::vector<DataPoint> points;
  for (int i = 0; i < 10; ++i) {
    points.push_back(MakePoint(i % 2 == 0 ? 1.0 : -1.0,
                               {static_cast<FeatureIndex>(i)}, {1.0}));
  }
  const CsrBlock block = CsrBlock::FromPoints(points);
  const size_t dim = 10000;
  DenseVector w1(dim);
  DenseVector w2(dim);
  Rng r1(9);
  Rng r2(9);
  const ComputeStats lazy =
      Binary(LossKind::kLogistic, reg, true).SgdEpoch(block, 0.1, &r1, &w1);
  const ComputeStats eager =
      Binary(LossKind::kLogistic, reg, false).SgdEpoch(block, 0.1, &r2, &w2);
  EXPECT_LT(lazy.nnz_processed * 100, eager.nnz_processed);
}

TEST(LocalSgdEpochTest, EmptyDataIsNoOp) {
  const CsrBlock block = CsrBlock::FromPoints({});
  DenseVector w(3);
  Rng rng(1);
  const ComputeStats stats =
      Binary(LossKind::kHinge).SgdEpoch(block, 0.1, &rng, &w);
  EXPECT_EQ(stats.model_updates, 0u);
  EXPECT_EQ(stats.nnz_processed, 0u);
}

TEST(LocalMiniBatchGdTest, OneBatchOneUpdate) {
  const CsrBlock block = CsrBlock::FromPoints(SeparableProblem());
  DenseVector w(2);
  Rng rng(11);
  const ComputeStats stats = Binary(LossKind::kLogistic)
                                 .MiniBatchGd(block, 0.1, block.rows(), 1,
                                              &rng, &w);
  EXPECT_EQ(stats.model_updates, 1u);
}

TEST(LocalMiniBatchGdTest, ConvergesOnSeparableData) {
  const auto points = SeparableProblem();
  const CsrBlock block = CsrBlock::FromPoints(points);
  DenseVector w(2);
  Rng rng(13);
  Binary(LossKind::kHinge, Regularizer(RegularizerKind::kL2, 0.01))
      .MiniBatchGd(block, 0.2, 3, 200, &rng, &w);
  EXPECT_GT(Accuracy(block, w), 0.99);
}

// ------------------------------------- MiniBatchGd vs the dense reference
// MiniBatchGd flushes its batch gradient through a TouchedBuffer. The
// reference below is the dense loop it replaced, kept verbatim apart
// from calling the objective's batch gradient: zero the whole gradient,
// accumulate, apply the regularizer, add the whole gradient. Both must
// produce the same weight bits and the same work accounting.
ComputeStats DenseReferenceMiniBatchGd(const CsrBlock& block,
                                       const GlmObjective& objective,
                                       double lr, size_t batch_size,
                                       size_t num_batches, Rng* rng,
                                       DenseVector* w) {
  const Regularizer& reg = objective.regularizer();
  ComputeStats stats;
  if (block.rows() == 0 || batch_size == 0) return stats;

  DenseVector gradient(w->dim());
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<size_t> batch =
        SampleBatch(block.rows(), batch_size, rng);
    gradient.SetZero();
    const ComputeStats batch_stats =
        objective.BatchGradient(block, batch, *w, &gradient);
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
  const CsrBlock block = GenerateSynthetic(spec).rows();

  // 4-row batches list ~32 coordinates (the listed sweep); 100-row
  // batches list ~800 of the 2000 (the dense sweep).
  for (RegularizerKind kind : {RegularizerKind::kNone, RegularizerKind::kL2}) {
    for (size_t batch_size : {size_t{4}, size_t{100}}) {
      SCOPED_TRACE(testing::Message() << "reg " << static_cast<int>(kind)
                                      << " batch " << batch_size);
      const GlmObjective objective =
          Binary(LossKind::kLogistic, Regularizer(kind, 0.01));
      DenseVector w = StartWeights(features);
      DenseVector ref_w = w;
      Rng rng(17);
      Rng ref_rng(17);
      const ComputeStats stats =
          objective.MiniBatchGd(block, 0.3, batch_size, 6, &rng, &w);
      const ComputeStats ref = DenseReferenceMiniBatchGd(
          block, objective, 0.3, batch_size, 6, &ref_rng, &ref_w);
      EXPECT_EQ(stats.nnz_processed, ref.nnz_processed);
      EXPECT_EQ(stats.model_updates, ref.model_updates);
      EXPECT_EQ(rng.NextUint64(), ref_rng.NextUint64());
      for (size_t i = 0; i < features; ++i) {
        ASSERT_EQ(Bits(w[i]), Bits(ref_w[i])) << "coordinate " << i;
      }
    }
  }
}

}  // namespace
}  // namespace mllibstar
