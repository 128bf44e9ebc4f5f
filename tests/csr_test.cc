// CsrBlock is a pure layout change: packing rows must keep every bit
// of them, and the kernels must train a value-free block (all values
// 1.0, read from the block's run of ones) exactly as they train the
// same rows with stored 1.0 values — same floating-point ops in the
// same order, same RNG consumption, same work accounting. EXPECT_EQ on
// doubles is intentional throughout.

#include "core/csr_block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/fnv1a.h"
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
    const std::vector<DataPoint>& points = data.points();
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

// ---- The kernels over both block kinds ------------------------------
// On one-hot data a value-free block must train exactly like the same
// rows stored with explicit 1.0 values: the kernels multiply by the
// block's run of 1.0s where they would have read the stored ones.

// The rows of a value-free block in the valued layout the packers built
// before value-free blocks: stored 1.0s.
CsrBlock WithStoredOnes(CsrBlock block) {
  block.value_free = false;
  block.ones.clear();
  block.values.assign(block.nnz(), 1.0);
  block.Finalize();
  return block;
}

void ExpectSameStats(const ComputeStats& a, const ComputeStats& b) {
  EXPECT_EQ(a.nnz_processed, b.nnz_processed);
  EXPECT_EQ(a.model_updates, b.model_updates);
}

DenseVector StartWeights(size_t dim) {
  DenseVector w(dim);
  for (size_t i = 0; i < dim; ++i) {
    w[i] = 0.01 * static_cast<double>(i % 13) - 0.05;
  }
  return w;
}

TEST(CsrKernelTest, BatchGradientValueFreeMatchesStoredOnes) {
  const Dataset data = TestData(false);
  const CsrBlock value_free = CsrBlock::FromPoints(data.points());
  ASSERT_TRUE(value_free.value_free);
  const CsrBlock stored = WithStoredOnes(value_free);
  auto loss = MakeLoss(LossKind::kLogistic);
  auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);
  Rng rng(3);
  const std::vector<size_t> batch = SampleBatch(data.size(), 40, &rng);
  const DenseVector w = StartWeights(data.num_features());

  auto objective = MakeBinaryObjective(loss.get(), none.get(), true);
  DenseVector g_a(w.dim()), g_b(w.dim());
  ExpectSameStats(objective->BatchGradient(value_free, batch, w, &g_a),
                  objective->BatchGradient(stored, batch, w, &g_b));
  ExpectSameVector(g_a, g_b);

  // The fused full-partition pass, with its loss sum.
  double loss_a = 0.0, loss_b = 0.0;
  ExpectSameStats(objective->LossGradient(value_free, w, &g_a, &loss_a),
                  objective->LossGradient(stored, w, &g_b, &loss_b));
  EXPECT_EQ(loss_a, loss_b);
  ExpectSameVector(g_a, g_b);
}

TEST(CsrKernelTest, LossGradientMatchesSeparateLoops) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const CsrBlock block = CsrBlock::FromPoints(data.points());
    auto loss = MakeLoss(LossKind::kHinge);
    auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);

    DenseVector w(data.num_features());
    for (size_t i = 0; i < w.dim(); ++i) {
      w[i] = 0.02 * static_cast<double>(i % 7) - 0.03;
    }

    // Reference: the unfused per-point loop over DataPoints.
    DenseVector g_ref(w.dim());
    double loss_ref = 0.0;
    uint64_t work_ref = 0;
    for (const DataPoint& p : data.points()) {
      const double margin = w.Dot(p.features);
      const double dl = loss->Derivative(margin, p.label);
      loss_ref += loss->Value(margin, p.label);
      work_ref += p.nnz();
      if (dl != 0.0) {
        g_ref.AddScaled(p.features, dl);
        work_ref += p.nnz();
      }
    }

    DenseVector g(w.dim());
    double loss_sum = 0.0;
    const ComputeStats stats =
        MakeBinaryObjective(loss.get(), none.get(), true)
            ->LossGradient(block, w, &g, &loss_sum);
    EXPECT_EQ(stats.nnz_processed, work_ref);
    EXPECT_EQ(loss_sum, loss_ref);
    ExpectSameVector(g, g_ref);
  }
}

TEST(CsrKernelTest, SgdEpochValueFreeMatchesStoredOnes) {
  const Dataset data = TestData(false);
  const CsrBlock value_free = CsrBlock::FromPoints(data.points());
  const CsrBlock stored = WithStoredOnes(value_free);
  auto loss = MakeLoss(LossKind::kLogistic);
  const size_t dim = data.num_features();

  for (const RegularizerKind kind :
       {RegularizerKind::kNone, RegularizerKind::kL2}) {
    for (const bool lazy : {false, true}) {
      SCOPED_TRACE("reg " + std::to_string(static_cast<int>(kind)) +
                   " lazy " + std::to_string(lazy));
      auto reg = MakeRegularizer(kind, 0.01);
      auto objective = MakeBinaryObjective(loss.get(), reg.get(), lazy);
      Rng rng_a(11), rng_b(11);
      DenseVector w_a(dim), w_b(dim);
      ExpectSameStats(objective->SgdEpoch(value_free, 0.2, &rng_a, &w_a),
                      objective->SgdEpoch(stored, 0.2, &rng_b, &w_b));
      ExpectSameVector(w_a, w_b);
      EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64())
          << "RNG consumption diverged";
    }
  }
}

TEST(CsrKernelTest, SubsetEpochMatchesCopyingTheRowsOut) {
  for (const bool gaussian : kValueKinds) {
    SCOPED_TRACE(KindName(gaussian));
    const Dataset data = TestData(gaussian);
    const CsrBlock block = CsrBlock::FromPoints(data.points());
    auto loss = MakeLoss(LossKind::kLogistic);
    auto reg = MakeRegularizer(RegularizerKind::kNone, 0.0);
    auto objective = MakeBinaryObjective(loss.get(), reg.get(), true);
    Rng rng_a(23), rng_b(23);
    const std::vector<size_t> rows = SampleBatch(block.rows(), 50, &rng_a);
    ASSERT_EQ(SampleBatch(block.rows(), 50, &rng_b), rows);

    std::vector<DataPoint> copied;
    copied.reserve(rows.size());
    for (size_t idx : rows) copied.push_back(data.point(idx));
    const CsrBlock copied_block = CsrBlock::FromPoints(copied);

    DenseVector w_a(data.num_features());
    DenseVector w_b(data.num_features());
    ExpectSameStats(objective->SgdEpoch(block, rows, 0.3, &rng_a, &w_a),
                    objective->SgdEpoch(copied_block, 0.3, &rng_b, &w_b));
    ExpectSameVector(w_a, w_b);
    EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64())
        << "RNG consumption diverged";
  }
}

TEST(CsrKernelTest, MiniBatchGdValueFreeMatchesStoredOnes) {
  const Dataset data = TestData(false);
  const CsrBlock value_free = CsrBlock::FromPoints(data.points());
  const CsrBlock stored = WithStoredOnes(value_free);
  const size_t dim = data.num_features();
  auto loss = MakeLoss(LossKind::kLogistic);
  auto reg = MakeRegularizer(RegularizerKind::kL2, 0.05);

  auto objective = MakeBinaryObjective(loss.get(), reg.get(), true);
  Rng rng_a(29), rng_b(29);
  DenseVector w_a(dim), w_b(dim);
  ExpectSameStats(objective->MiniBatchGd(value_free, 0.1, 30, 5, &rng_a, &w_a),
                  objective->MiniBatchGd(stored, 0.1, 30, 5, &rng_b, &w_b));
  ExpectSameVector(w_a, w_b);
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64())
      << "RNG consumption diverged";
}

// ---- Value-free packing --------------------------------------------

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::memcmp(&x, &y, sizeof(double)) == 0;
         });
}

TEST(CsrBlockTest, ValueFreeBlockStoresNoValues) {
  const Dataset data = TestData(false);
  const std::vector<DataPoint>& points = data.points();
  const CsrBlock block = CsrBlock::FromPoints(points);
  ASSERT_TRUE(block.value_free);
  EXPECT_TRUE(block.values.empty());
  size_t widest = 0;
  for (const DataPoint& p : points) widest = std::max(widest, p.nnz());
  ASSERT_GT(widest, 0u);
  EXPECT_EQ(block.ones.size(), widest);
  for (size_t i = 0; i < block.rows(); ++i) {
    for (size_t j = 0; j < block.row_nnz(i); ++j) {
      ASSERT_EQ(block.row_values(i)[j], 1.0);
    }
  }
}

TEST(CsrBlockTest, OneValueOtherThanOneKeepsTheArrays) {
  const Dataset data = TestData(false);
  const double kNotOne[] = {-1.0, 0.0, std::nextafter(1.0, 2.0),
                            std::numeric_limits<double>::quiet_NaN()};
  for (const double bad : kNotOne) {
    SCOPED_TRACE(bad);
    std::vector<DataPoint> points = data.points();
    DataPoint& target = points[points.size() / 2];
    ASSERT_GT(target.nnz(), 0u);
    target.features.values.back() = bad;

    const CsrBlock block = CsrBlock::FromPoints(points);
    EXPECT_FALSE(block.value_free);
    EXPECT_EQ(block.values.size(), block.nnz());
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
  uint64_t digest = kFnv1aBasis;
  for (size_t idx : batch) {
    ASSERT_LT(idx, 1000u);
    EXPECT_FALSE(seen[idx]) << "duplicate index " << idx;
    seen[idx] = true;
    Fnv1aMix(static_cast<uint64_t>(idx), &digest);
  }
  // The rows in draw order and the Rng's next draw, as the hash-set
  // sampler left them.
  Fnv1aMix(rng.NextUint64(), &digest);
  EXPECT_EQ(digest, 0x631b6be262696ae8ull);
}

TEST(SampleBatchFloydTest, CoversAllIndicesEventually) {
  // Every index must be reachable (uniformity smoke check).
  std::vector<bool> seen(64, false);
  Rng rng(13);
  uint64_t digest = kFnv1aBasis;
  for (int trial = 0; trial < 400; ++trial) {
    for (size_t idx : SampleBatch(64, 8, &rng)) {
      seen[idx] = true;
      Fnv1aMix(static_cast<uint64_t>(idx), &digest);
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "index " << i << " never sampled";
  }
  Fnv1aMix(rng.NextUint64(), &digest);
  EXPECT_EQ(digest, 0xc83e1eaa2e7bd917ull);
}

}  // namespace
}  // namespace mllibstar
