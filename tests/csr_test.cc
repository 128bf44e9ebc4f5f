// CsrBlock is a pure layout change: packing a partition and running
// the CSR kernels must produce bit-for-bit the results of the
// per-DataPoint kernels — same floating-point ops in the same order,
// same RNG consumption, same work accounting. That holds for both
// block kinds: valued blocks (arbitrary values, stored) and value-free
// ones (all values 1.0, read from the block's run of ones), so every
// kernel test runs over both. EXPECT_EQ on doubles is intentional
// throughout.

#include "core/csr_block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "core/gd.h"
#include "core/model.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

// One-hot rows (all values 1.0, packed value-free) or N(0,1) values.
Dataset TestData(bool gaussian_values) {
  SyntheticSpec spec;
  spec.name = "csr";
  spec.num_instances = 300;
  spec.num_features = 80;
  spec.avg_nnz = 7;
  spec.seed = 19;
  spec.gaussian_values = gaussian_values;
  return GenerateSynthetic(spec);
}

constexpr bool kValueKinds[] = {false, true};

std::string KindName(bool gaussian_values) {
  return gaussian_values ? "valued" : "value-free";
}

std::vector<DataPoint> Points(const Dataset& data) {
  std::vector<DataPoint> points;
  points.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) points.push_back(data.point(i));
  return points;
}

void ExpectSameVector(const DenseVector& a, const DenseVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "coordinate " << i;
  }
}

TEST(CsrBlockTest, RoundTripsEveryPoint) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const std::vector<DataPoint> points = Points(data);
    const CsrBlock block = CsrBlock::FromPoints(points);

    EXPECT_EQ(block.value_free, !gaussian);
    ASSERT_EQ(block.rows(), points.size());
    EXPECT_EQ(block.offsets.size(), points.size() + 1);
    EXPECT_EQ(block.offsets.front(), 0u);
    EXPECT_EQ(block.offsets.back(), block.nnz());
    for (size_t i = 0; i < points.size(); ++i) {
      const DataPoint back = block.PointAt(i);
      EXPECT_EQ(back.label, points[i].label);
      ASSERT_EQ(back.features.indices, points[i].features.indices);
      ASSERT_EQ(back.features.values, points[i].features.values);
    }
  }
}

TEST(CsrBlockTest, EmptyInputGivesEmptyBlock) {
  const CsrBlock block = CsrBlock::FromPoints({});
  EXPECT_EQ(block.rows(), 0u);
  EXPECT_EQ(block.nnz(), 0u);
  ASSERT_EQ(block.offsets.size(), 1u);
  EXPECT_EQ(block.offsets[0], 0u);
}

TEST(PartitionCsrTest, MatchesRoundRobinPartitioning) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const size_t k = 7;  // does not divide 300: uneven partitions
    const std::vector<std::vector<DataPoint>> parts =
        PartitionRoundRobin(data, k);
    const std::vector<CsrBlock> blocks = PartitionCsr(data, k);

    ASSERT_EQ(blocks.size(), parts.size());
    for (size_t r = 0; r < k; ++r) {
      ASSERT_EQ(blocks[r].rows(), parts[r].size()) << "partition " << r;
      EXPECT_EQ(blocks[r].value_free, !gaussian);
      for (size_t i = 0; i < parts[r].size(); ++i) {
        const DataPoint& source = data.point(RoundRobinRow(r, i, k));
        EXPECT_EQ(source.label, parts[r][i].label);
        ASSERT_EQ(source.features.indices, parts[r][i].features.indices);
        const DataPoint back = blocks[r].PointAt(i);
        EXPECT_EQ(back.label, parts[r][i].label);
        ASSERT_EQ(back.features.indices, parts[r][i].features.indices);
        ASSERT_EQ(back.features.values, parts[r][i].features.values);
      }
    }
  }
}

TEST(CsrKernelTest, BatchGradientMatchesDataPointKernel) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const std::vector<DataPoint> points = Points(data);
    const CsrBlock block = CsrBlock::FromPoints(points);
    auto loss = MakeLoss(LossKind::kLogistic);

    Rng rng(3);
    const std::vector<size_t> batch = SampleBatch(points.size(), 40, &rng);
    DenseVector w(data.num_features());
    for (size_t i = 0; i < w.dim(); ++i) {
      w[i] = 0.01 * static_cast<double>(i % 13) - 0.05;
    }

    DenseVector g_points(w.dim());
    DenseVector g_block(w.dim());
    const ComputeStats a =
        AccumulateBatchGradient(points, batch, *loss, w, &g_points);
    const ComputeStats b =
        AccumulateBatchGradient(block, batch, *loss, w, &g_block);
    EXPECT_EQ(a.nnz_processed, b.nnz_processed);
    ExpectSameVector(g_points, g_block);
  }
}

TEST(CsrKernelTest, LossGradientMatchesSeparateLoops) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const std::vector<DataPoint> points = Points(data);
    const CsrBlock block = CsrBlock::FromPoints(points);
    auto loss = MakeLoss(LossKind::kHinge);

    DenseVector w(data.num_features());
    for (size_t i = 0; i < w.dim(); ++i) {
      w[i] = 0.02 * static_cast<double>(i % 7) - 0.03;
    }

    // Reference: the unfused per-point loop over DataPoints.
    DenseVector g_ref(w.dim());
    double loss_ref = 0.0;
    uint64_t work_ref = 0;
    for (const DataPoint& p : points) {
      const double margin = w.Dot(p.features);
      const double dl = loss->Derivative(margin, p.label);
      loss_ref += loss->Value(margin, p.label);
      work_ref += p.nnz();
      if (dl != 0.0) {
        g_ref.AddScaled(p.features, dl);
        work_ref += p.nnz();
      }
    }

    for (const auto& run : {0, 1}) {
      DenseVector g(w.dim());
      double loss_sum = 0.0;
      const ComputeStats stats =
          run == 0 ? AccumulateLossGradient(points, *loss, w, &g, &loss_sum)
                   : AccumulateLossGradient(block, *loss, w, &g, &loss_sum);
      EXPECT_EQ(stats.nnz_processed, work_ref);
      EXPECT_EQ(loss_sum, loss_ref);
      ExpectSameVector(g, g_ref);
    }
  }
}

TEST(CsrKernelTest, SgdEpochMatchesDataPointKernel) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const std::vector<DataPoint> points = Points(data);
    const CsrBlock block = CsrBlock::FromPoints(points);
    auto loss = MakeLoss(LossKind::kLogistic);

    for (const RegularizerKind kind :
         {RegularizerKind::kNone, RegularizerKind::kL2}) {
      for (const bool lazy : {false, true}) {
        auto reg = MakeRegularizer(kind, 0.01);
        Rng rng_a(11), rng_b(11);
        DenseVector w_a(data.num_features());
        DenseVector w_b(data.num_features());
        const ComputeStats a =
            LocalSgdEpoch(points, *loss, *reg, 0.2, lazy, &rng_a, &w_a);
        const ComputeStats b =
            LocalSgdEpoch(block, *loss, *reg, 0.2, lazy, &rng_b, &w_b);
        EXPECT_EQ(a.nnz_processed, b.nnz_processed);
        EXPECT_EQ(a.model_updates, b.model_updates);
        ExpectSameVector(w_a, w_b);
        EXPECT_EQ(rng_a.NextUint64(1u << 30), rng_b.NextUint64(1u << 30))
            << "RNG consumption diverged";
      }
    }
  }
}

TEST(CsrKernelTest, SubsetEpochMatchesCopyingTheRowsOut) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const std::vector<DataPoint> points = Points(data);
    const CsrBlock block = CsrBlock::FromPoints(points);
    auto loss = MakeLoss(LossKind::kLogistic);
    auto reg = MakeRegularizer(RegularizerKind::kNone, 0.0);

    Rng rng_a(23), rng_b(23);
    const std::vector<size_t> batch_a = SampleBatch(points.size(), 50, &rng_a);
    const std::vector<size_t> batch_b = SampleBatch(points.size(), 50, &rng_b);
    ASSERT_EQ(batch_a, batch_b);

    std::vector<DataPoint> copied;
    copied.reserve(batch_a.size());
    for (size_t idx : batch_a) copied.push_back(points[idx]);

    DenseVector w_a(data.num_features());
    DenseVector w_b(data.num_features());
    const ComputeStats a =
        LocalSgdEpoch(copied, *loss, *reg, 0.3, true, &rng_a, &w_a);
    const ComputeStats b =
        LocalSgdEpoch(block, batch_b, *loss, *reg, 0.3, true, &rng_b, &w_b);
    EXPECT_EQ(a.nnz_processed, b.nnz_processed);
    EXPECT_EQ(a.model_updates, b.model_updates);
    ExpectSameVector(w_a, w_b);
  }
}

TEST(CsrKernelTest, OptimizerEpochMatchesDataPointKernel) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const std::vector<DataPoint> points = Points(data);
    const CsrBlock block = CsrBlock::FromPoints(points);
    auto loss = MakeLoss(LossKind::kLogistic);
    auto reg = MakeRegularizer(RegularizerKind::kL2, 0.01);

    LocalOptimizerConfig opt_config;
    opt_config.kind = LocalOptimizerKind::kAdam;
    auto opt_a = MakeLocalOptimizer(opt_config, data.num_features());
    auto opt_b = MakeLocalOptimizer(opt_config, data.num_features());

    Rng rng_a(7), rng_b(7);
    DenseVector w_a(data.num_features());
    DenseVector w_b(data.num_features());
    const ComputeStats a = LocalOptimizerEpoch(points, *loss, *reg, 0.1,
                                               opt_a.get(), &rng_a, &w_a);
    const ComputeStats b = LocalOptimizerEpoch(block, *loss, *reg, 0.1,
                                               opt_b.get(), &rng_b, &w_b);
    EXPECT_EQ(a.nnz_processed, b.nnz_processed);
    EXPECT_EQ(a.model_updates, b.model_updates);
    ExpectSameVector(w_a, w_b);
  }
}

TEST(CsrKernelTest, MiniBatchGdMatchesDataPointKernel) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const std::vector<DataPoint> points = Points(data);
    const CsrBlock block = CsrBlock::FromPoints(points);
    auto loss = MakeLoss(LossKind::kLogistic);
    auto reg = MakeRegularizer(RegularizerKind::kL2, 0.05);

    Rng rng_a(29), rng_b(29);
    DenseVector w_a(data.num_features());
    DenseVector w_b(data.num_features());
    const ComputeStats a = LocalMiniBatchGd(points, *loss, *reg, 0.1, 30, 5,
                                            &rng_a, &w_a);
    const ComputeStats b =
        LocalMiniBatchGd(block, *loss, *reg, 0.1, 30, 5, &rng_b, &w_b);
    EXPECT_EQ(a.nnz_processed, b.nnz_processed);
    EXPECT_EQ(a.model_updates, b.model_updates);
    ExpectSameVector(w_a, w_b);
  }
}

// ---- Value-free packing --------------------------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::memcmp(&x, &y, sizeof(double)) == 0;
         });
}

TEST(CsrBlockTest, ValueFreeBlockStoresNoValues) {
  const std::vector<DataPoint> points = Points(TestData(false));
  const CsrBlock block = CsrBlock::FromPoints(points);
  ASSERT_TRUE(block.value_free);
  EXPECT_TRUE(block.values.empty());
  EXPECT_TRUE(block.values_f32.empty());
  EXPECT_TRUE(block.has_f32());
  size_t widest = 0;
  for (const DataPoint& p : points) widest = std::max(widest, p.nnz());
  ASSERT_GT(widest, 0u);
  EXPECT_EQ(block.ones.size(), widest);
  for (size_t i = 0; i < block.rows(); ++i) {
    for (size_t j = 0; j < block.row_nnz(i); ++j) {
      ASSERT_EQ(block.row_values(i)[j], 1.0);
      ASSERT_EQ(block.row_values_f32(i)[j], 1.0f);
    }
  }
}

TEST(CsrBlockTest, OneValueOtherThanOneKeepsTheArrays) {
  const Dataset data = TestData(false);
  const double kNotOne[] = {-1.0, 0.0, std::nextafter(1.0, 2.0),
                            std::numeric_limits<double>::quiet_NaN()};
  for (const double bad : kNotOne) {
    SCOPED_TRACE(bad);
    std::vector<DataPoint> points = Points(data);
    DataPoint& target = points[points.size() / 2];
    ASSERT_GT(target.nnz(), 0u);
    target.features.values.back() = bad;

    const CsrBlock block = CsrBlock::FromPoints(points);
    EXPECT_FALSE(block.value_free);
    EXPECT_EQ(block.values.size(), block.nnz());
    EXPECT_EQ(block.values_f32.size(), block.nnz());
    for (size_t i = 0; i < points.size(); ++i) {
      const DataPoint back = block.PointAt(i);
      ASSERT_EQ(back.features.indices, points[i].features.indices);
      ASSERT_TRUE(SameBits(back.features.values, points[i].features.values))
          << "row " << i;
    }

    // PartitionCsr decides per block: only the bad row's block keeps
    // its arrays.
    Dataset with_bad(data.num_features(), "bad");
    for (const DataPoint& p : points) with_bad.Add(p);
    const size_t k = 4;
    const std::vector<CsrBlock> blocks = PartitionCsr(with_bad, k);
    for (size_t r = 0; r < k; ++r) {
      EXPECT_EQ(blocks[r].value_free, r != (points.size() / 2) % k)
          << "partition " << r;
    }
  }
}

// Rows 1, 4, 7, ... carry N(0,1) values, the rest are one-hot, and
// every 10th row has no features at all.
Dataset MixedData(const Dataset& ones, const Dataset& valued) {
  Dataset mixed(ones.num_features(), "mixed");
  for (size_t i = 0; i < ones.size(); ++i) {
    DataPoint p = i % 3 == 1 ? valued.point(i) : ones.point(i);
    if (i % 10 == 0) p.features = SparseVector();
    mixed.Add(std::move(p));
  }
  return mixed;
}

TEST(PartitionCsrTest, MixedDatasetGivesMixedBlocks) {
  const Dataset data = MixedData(TestData(false), TestData(true));
  const size_t k = 3;
  const std::vector<CsrBlock> blocks = PartitionCsr(data, k);
  EXPECT_TRUE(blocks[0].value_free);
  EXPECT_FALSE(blocks[1].value_free);
  EXPECT_TRUE(blocks[2].value_free);
  for (size_t r = 0; r < k; ++r) {
    for (size_t i = 0; i < blocks[r].rows(); ++i) {
      const DataPoint& source = data.point(RoundRobinRow(r, i, k));
      const DataPoint back = blocks[r].PointAt(i);
      EXPECT_EQ(back.label, source.label);
      ASSERT_EQ(back.features.indices, source.features.indices);
      ASSERT_EQ(back.features.values, source.features.values);
    }
  }
}

// ---- The objective evaluated from the packed partitions -------------

// Partition counts: one block, uneven blocks, the kdd12 worker count,
// and more partitions than rows (two stay empty).
std::vector<size_t> EvalPartitionCounts(size_t n) { return {1, 3, 8, n + 2}; }

DenseVector TestWeights(size_t dim, uint64_t seed) {
  Rng rng(seed);
  DenseVector w(dim);
  for (size_t i = 0; i < dim; ++i) w[i] = rng.NextDouble(-0.5, 0.5);
  return w;
}

TEST(PartitionEvalTest, BinaryMatchesMeanLossBitForBit) {
  Dataset ones = TestData(false);
  Dataset valued = TestData(true);
  ones.set_name("value-free");
  valued.set_name("valued");
  Dataset mixed = MixedData(ones, valued);
  auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);
  const DenseVector w = TestWeights(ones.num_features(), 5);
  for (const LossKind kind : {LossKind::kHinge, LossKind::kLogistic}) {
    auto loss = MakeLoss(kind);
    auto objective = MakeBinaryObjective(loss.get(), none.get(), true);
    for (const Dataset* data : {&ones, &valued, &mixed}) {
      SCOPED_TRACE(data->name() + "/" + loss->name());
      const double expected = MeanLoss(data->points(), *loss, w);
      std::vector<double> slots;
      for (const size_t k : EvalPartitionCounts(data->size())) {
        const std::vector<CsrBlock> parts = PartitionCsr(*data, k);
        EXPECT_EQ(objective->MeanPartitionLoss(parts, w, &slots), expected)
            << "k=" << k;
        EXPECT_EQ(slots.size(), data->size());
      }
    }
  }
}

TEST(PartitionEvalTest, SoftmaxMatchesMeanSoftmaxLossBitForBit) {
  const size_t num_classes = 4;
  auto make = [&](bool gaussian) {
    MulticlassSpec spec;
    spec.base.name = "csr_softmax";
    spec.base.num_instances = 200;
    spec.base.num_features = 50;
    spec.base.avg_nnz = 6;
    spec.base.seed = 31;
    spec.base.gaussian_values = gaussian;
    spec.num_classes = num_classes;
    return GenerateMulticlass(spec);
  };
  Dataset ones = make(false);
  Dataset valued = make(true);
  ones.set_name("value-free");
  valued.set_name("valued");
  Dataset mixed = MixedData(ones, valued);
  auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);
  auto objective = MakeSoftmaxObjective(num_classes, none.get(), true);
  const size_t d = ones.num_features();
  const DenseVector w = TestWeights(num_classes * d, 6);
  for (const Dataset* data : {&ones, &valued, &mixed}) {
    SCOPED_TRACE(data->name());
    const double expected =
        MeanSoftmaxLoss(data->points(), num_classes, d, w);
    std::vector<double> slots;
    for (const size_t k : EvalPartitionCounts(data->size())) {
      const std::vector<CsrBlock> parts = PartitionCsr(*data, k);
      EXPECT_EQ(objective->MeanPartitionLoss(parts, w, &slots), expected)
          << "k=" << k;
    }
  }
}

TEST(PartitionEvalTest, EmptyDatasetIsZero) {
  auto loss = MakeLoss(LossKind::kLogistic);
  auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);
  auto objective = MakeBinaryObjective(loss.get(), none.get(), true);
  const Dataset empty(10, "empty");
  std::vector<double> slots;
  EXPECT_EQ(objective->MeanPartitionLoss(PartitionCsr(empty, 3),
                                         DenseVector(10), &slots),
            MeanLoss(empty.points(), *loss, DenseVector(10)));
}

TEST(SampleBatchFloydTest, SmallFractionIsUniqueAndInRange) {
  Rng rng(41);
  // batch_size * 4 < n: exercises the Floyd's-sampling path.
  const std::vector<size_t> batch = SampleBatch(1000, 50, &rng);
  ASSERT_EQ(batch.size(), 50u);
  std::vector<bool> seen(1000, false);
  for (size_t idx : batch) {
    ASSERT_LT(idx, 1000u);
    EXPECT_FALSE(seen[idx]) << "duplicate index " << idx;
    seen[idx] = true;
  }
}

TEST(SampleBatchFloydTest, CoversAllIndicesEventually) {
  // Every index must be reachable (uniformity smoke check).
  std::vector<bool> seen(64, false);
  Rng rng(13);
  for (int trial = 0; trial < 400; ++trial) {
    for (size_t idx : SampleBatch(64, 8, &rng)) seen[idx] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "index " << i << " never sampled";
  }
}

}  // namespace
}  // namespace mllibstar
