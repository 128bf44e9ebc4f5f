// Tests for the SIMD kernel layer (core/simd, DESIGN §13).
//
// The load-bearing property is the bit-exactness contract: every
// dispatch tier must reproduce the scalar reference bit-for-bit, so
// the choice of SIMD level can never perturb a simulated result.
#include "core/simd/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/csr_block.h"
#include "core/loss.h"
#include "core/simd/kernels.h"
#include "core/vector.h"
#include "data/synthetic.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

// Restores the active dispatch level on scope exit so tests that pin
// a level cannot leak it into later tests in this binary.
struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::SetSimdLevel(simd::DetectedSimdLevel()); }
};

std::vector<simd::SimdLevel> AvailableLevels() {
  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  const simd::SimdLevel detected = simd::DetectedSimdLevel();
  for (simd::SimdLevel l : {simd::SimdLevel::kSse2, simd::SimdLevel::kAvx2}) {
    if (detected >= l) levels.push_back(l);
  }
  return levels;
}

// Lengths chosen to cover every vector-loop remainder: 0..16 hits all
// 4-wide tails several times over, and the larger ones exercise
// multi-block rows.
std::vector<size_t> RemainderLengths() {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 16; ++n) lengths.push_back(n);
  for (size_t n : {31u, 32u, 33u, 39u, 40u, 63u, 64u, 65u, 100u, 511u,
                   512u, 513u}) {
    lengths.push_back(n);
  }
  return lengths;
}

struct TestRow {
  std::vector<FeatureIndex> indices;
  std::vector<double> values;
};

TestRow MakeSortedRow(size_t dim, size_t nnz, Rng* rng) {
  TestRow row;
  std::vector<char> used(dim, 0);
  while (row.indices.size() < nnz) {
    const FeatureIndex j = static_cast<FeatureIndex>(rng->NextUint64(dim));
    if (!used[j]) {
      used[j] = 1;
      row.indices.push_back(j);
    }
  }
  std::sort(row.indices.begin(), row.indices.end());
  for (size_t i = 0; i < nnz; ++i) {
    row.values.push_back(rng->NextDouble(-1.0, 1.0));
  }
  return row;
}

TEST(DispatchTest, LevelNamesRoundTrip) {
  for (simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2}) {
    const auto parsed = simd::ParseSimdLevel(simd::SimdLevelName(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd::ParseSimdLevel("auto").has_value());
  EXPECT_FALSE(simd::ParseSimdLevel("avx512").has_value());
  EXPECT_FALSE(simd::ParseSimdLevel("avx999").has_value());
}

TEST(DispatchTest, SetLevelClampsToDetected) {
  SimdLevelGuard guard;
  const simd::SimdLevel detected = simd::DetectedSimdLevel();
  const simd::SimdLevel applied = simd::SetSimdLevel(simd::SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(applied), static_cast<int>(detected));
  EXPECT_EQ(simd::ActiveSimdLevel(), applied);
  EXPECT_EQ(simd::SetSimdLevel(simd::SimdLevel::kScalar),
            simd::SimdLevel::kScalar);
  EXPECT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
}

#if defined(__x86_64__) || defined(_M_X64)
TEST(DispatchTest, DetectedAtLeastSse2OnX86) {
  EXPECT_GE(static_cast<int>(simd::DetectedSimdLevel()),
            static_cast<int>(simd::SimdLevel::kSse2));
}
#endif

TEST(DispatchTest, TableMatchesLevel) {
  for (simd::SimdLevel level : AvailableLevels()) {
    EXPECT_EQ(simd::KernelsFor(level).level, level)
        << simd::SimdLevelName(level);
  }
}

// ---- Bit-exactness across tiers ------------------------------------

TEST(KernelBitEqualityTest, SparseDotF64AllTiers) {
  Rng rng(101);
  const size_t dim = 1024;
  std::vector<double> w(dim);
  for (double& v : w) v = rng.NextDouble(-2.0, 2.0);
  const simd::KernelDispatch& scalar =
      simd::KernelsFor(simd::SimdLevel::kScalar);
  for (size_t nnz : RemainderLengths()) {
    const TestRow row = MakeSortedRow(dim, nnz, &rng);
    const double ref =
        scalar.sparse_dot_f64(w.data(), row.indices.data(),
                              row.values.data(), nnz);
    for (simd::SimdLevel level : AvailableLevels()) {
      const double got = simd::KernelsFor(level).sparse_dot_f64(
          w.data(), row.indices.data(), row.values.data(), nnz);
      EXPECT_EQ(got, ref) << simd::SimdLevelName(level) << " nnz=" << nnz;
    }
  }
}

TEST(KernelBitEqualityTest, SparseAxpyF64AllTiers) {
  Rng rng(102);
  const size_t dim = 1024;
  std::vector<double> w0(dim);
  for (double& v : w0) v = rng.NextDouble(-2.0, 2.0);
  const simd::KernelDispatch& scalar =
      simd::KernelsFor(simd::SimdLevel::kScalar);
  for (size_t nnz : RemainderLengths()) {
    const TestRow row = MakeSortedRow(dim, nnz, &rng);
    const double alpha = rng.NextDouble(-1.0, 1.0);
    std::vector<double> ref = w0;
    scalar.sparse_axpy_f64(ref.data(), row.indices.data(),
                           row.values.data(), nnz, alpha);
    for (simd::SimdLevel level : AvailableLevels()) {
      std::vector<double> got = w0;
      simd::KernelsFor(level).sparse_axpy_f64(
          got.data(), row.indices.data(), row.values.data(), nnz, alpha);
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(got[i], ref[i])
            << simd::SimdLevelName(level) << " nnz=" << nnz << " i=" << i;
      }
    }
  }
}

TEST(KernelBitEqualityTest, DenseKernelsF64AllTiers) {
  Rng rng(103);
  const simd::KernelDispatch& scalar =
      simd::KernelsFor(simd::SimdLevel::kScalar);
  for (size_t n : RemainderLengths()) {
    std::vector<double> a(n), b(n);
    for (double& v : a) v = rng.NextDouble(-2.0, 2.0);
    for (double& v : b) v = rng.NextDouble(-2.0, 2.0);
    const double alpha = rng.NextDouble(-1.0, 1.0);
    const double ref_dot = scalar.dense_dot(a.data(), b.data(), n);
    std::vector<double> ref_w = a;
    scalar.dense_axpy(ref_w.data(), b.data(), n, alpha);
    for (simd::SimdLevel level : AvailableLevels()) {
      EXPECT_EQ(simd::KernelsFor(level).dense_dot(a.data(), b.data(), n),
                ref_dot)
          << simd::SimdLevelName(level) << " n=" << n;
      std::vector<double> w = a;
      simd::KernelsFor(level).dense_axpy(w.data(), b.data(), n, alpha);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(w[i], ref_w[i])
            << simd::SimdLevelName(level) << " n=" << n << " i=" << i;
      }
    }
  }
}

// ---- CsrBlock storage invariants -----------------------------------

TEST(CsrAlignmentTest, BlockArraysAre64ByteAligned) {
  SyntheticSpec spec;
  spec.name = "simd_align";
  spec.num_instances = 64;
  spec.num_features = 200;
  spec.avg_nnz = 12;
  spec.seed = 3;
  spec.gaussian_values = true;  // a valued block: every array is filled
  const Dataset data = GenerateSynthetic(spec);
  const CsrBlock& block = data.rows();
  ASSERT_FALSE(block.value_free);
  ASSERT_FALSE(block.values.empty());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.offsets.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.indices.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.values.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.labels.data()) % 64, 0u);

  // A value-free block's runs of ones are aligned the same way.
  spec.gaussian_values = false;
  const CsrBlock ones = GenerateSynthetic(spec).rows();
  ASSERT_TRUE(ones.value_free);
  ASSERT_FALSE(ones.ones.empty());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ones.ones.data()) % 64, 0u);
}

// ---- Fused passes: bit-exact per tier ------------------------------

TEST(FusedKernelTest, F64FusedPassBitExactAcrossTiers) {
  SimdLevelGuard guard;
  SyntheticSpec spec;
  spec.name = "simd_fused";
  spec.num_instances = 200;
  spec.num_features = 300;
  spec.avg_nnz = 24;
  spec.seed = 9;
  spec.gaussian_values = true;  // valued rows, as stored
  const Dataset data = GenerateSynthetic(spec);
  const CsrBlock& block = data.rows();
  const GlmObjective objective(
      LossKind::kLogistic, Regularizer(RegularizerKind::kNone, 0.0), true);
  DenseVector w(spec.num_features);
  Rng rng(7);
  for (size_t i = 0; i < w.dim(); ++i) w[i] = rng.NextDouble(-0.5, 0.5);

  simd::SetSimdLevel(simd::SimdLevel::kScalar);
  DenseVector ref_grad(w.dim());
  double ref_loss = 0.0;
  objective.LossGradient(block, w, &ref_grad, &ref_loss);

  for (simd::SimdLevel level : AvailableLevels()) {
    simd::SetSimdLevel(level);
    DenseVector grad(w.dim());
    double loss_sum = 0.0;
    objective.LossGradient(block, w, &grad, &loss_sum);
    EXPECT_EQ(loss_sum, ref_loss) << simd::SimdLevelName(level);
    for (size_t i = 0; i < w.dim(); ++i) {
      ASSERT_EQ(grad[i], ref_grad[i])
          << simd::SimdLevelName(level) << " i=" << i;
    }
  }
}

// ---- Block margins ---------------------------------------------------

// `rows` rows holding 0-9 nonzeros in turn (empty rows and every tail
// length of the 4-lane loops), valued or, with every value 1.0,
// value-free.
CsrBlock TailBlock(size_t rows, size_t dim, bool valued, Rng* rng) {
  CsrBlock block;
  for (size_t i = 0; i < rows; ++i) {
    TestRow row = MakeSortedRow(dim, i % 10, rng);
    if (!valued) std::fill(row.values.begin(), row.values.end(), 1.0);
    block.AppendRow(row.indices.data(), row.values.data(),
                    row.indices.size(), i % 3 == 0 ? 1.0 : -1.0);
  }
  return block;
}

// Every row in descending order, then repeats, then draws with
// replacement: longer than two chunks and the prefetch distance.
std::vector<size_t> TailList(size_t rows, Rng* rng) {
  std::vector<size_t> list;
  for (size_t r = rows; r-- > 0;) list.push_back(r);
  for (size_t r : {5, 5, 5, 17, 3, 17, 0, 0}) list.push_back(r % rows);
  for (size_t i = 0; i < rows; ++i) list.push_back(rng->NextUint64(rows));
  return list;
}

DenseVector RandomModel(size_t dim, Rng* rng) {
  DenseVector w(dim);
  for (size_t i = 0; i < dim; ++i) w[i] = rng->NextDouble(-2.0, 2.0);
  return w;
}

TEST(RowMarginsTest, MatchPerRowDotsOnEveryTier) {
  Rng rng(104);
  const size_t rows = 3 * kMarginChunk + 5;
  const simd::KernelDispatch& scalar =
      simd::KernelsFor(simd::SimdLevel::kScalar);
  for (const bool valued : {false, true}) {
    const CsrBlock block = TailBlock(rows, 64, valued, &rng);
    ASSERT_EQ(block.value_free, !valued);
    const DenseVector w = RandomModel(64, &rng);
    const std::vector<size_t> list = TailList(rows, &rng);
    // The per-row dot of row r on `k`, checked against the scalar one.
    auto per_row = [&](const simd::KernelDispatch& k, size_t r) {
      const double dot =
          k.sparse_dot_f64(w.data(), block.row_indices(r),
                           block.row_values(r), block.row_nnz(r));
      EXPECT_EQ(dot, scalar.sparse_dot_f64(w.data(), block.row_indices(r),
                                           block.row_values(r),
                                           block.row_nnz(r)));
      return dot;
    };
    // Whole walks, slices across the first chunk edge, the last row
    // alone and an empty slice.
    const struct {
      size_t begin;
      size_t count;
    } kRanges[] = {{0, rows}, {kMarginChunk - 3, 7}, {rows - 1, 1}, {5, 0}};
    for (simd::SimdLevel level : AvailableLevels()) {
      SCOPED_TRACE(std::string(simd::SimdLevelName(level)) +
                   (valued ? " valued" : " value-free"));
      const simd::KernelDispatch& k = simd::KernelsFor(level);
      for (const auto& range : kRanges) {
        std::vector<double> out(range.count + 1, -1.0);
        k.row_margins(w.data(), block.spans(), nullptr, 0, range.begin,
                      range.count, out.data());
        for (size_t j = 0; j < range.count; ++j) {
          EXPECT_EQ(out[j], per_row(k, range.begin + j))
              << "row " << range.begin + j;
        }
        EXPECT_EQ(out[range.count], -1.0) << "wrote past count";
      }
      const struct {
        size_t begin;
        size_t count;
      } kSlices[] = {{0, list.size()}, {kMarginChunk - 3, 7}, {rows, 40}};
      for (const auto& slice : kSlices) {
        std::vector<double> out(slice.count + 1, -1.0);
        k.row_margins(w.data(), block.spans(), list.data(), list.size(),
                      slice.begin, slice.count, out.data());
        for (size_t j = 0; j < slice.count; ++j) {
          EXPECT_EQ(out[j], per_row(k, list[slice.begin + j]))
              << "list entry " << slice.begin + j;
        }
        EXPECT_EQ(out[slice.count], -1.0) << "wrote past count";
      }
    }
  }
}

TEST(RowMarginsTest, ForEachMarginVisitsRowsInOrder) {
  Rng rng(105);
  const size_t rows = 2 * kMarginChunk + 9;
  const CsrBlock block = TailBlock(rows, 48, true, &rng);
  const DenseVector w = RandomModel(48, &rng);
  const std::vector<size_t> list = TailList(rows, &rng);
  auto dot = [&](size_t r) {
    return w.Dot(block.row_indices(r), block.row_values(r),
                 block.row_nnz(r));
  };

  std::vector<size_t> visited;
  ForEachMargin(block, w, [&](size_t r, double margin) {
    visited.push_back(r);
    EXPECT_EQ(margin, dot(r)) << "row " << r;
  });
  ASSERT_EQ(visited.size(), rows);
  for (size_t r = 0; r < rows; ++r) EXPECT_EQ(visited[r], r);

  visited.clear();
  ForEachMargin(block, list, w, [&](size_t r, double margin) {
    visited.push_back(r);
    EXPECT_EQ(margin, dot(r)) << "row " << r;
  });
  EXPECT_EQ(visited, list);

  size_t calls = 0;
  ForEachMargin(CsrBlock(), w, [&](size_t, double) { ++calls; });
  ForEachMargin(block, std::vector<size_t>(), w,
                [&](size_t, double) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(RowMarginsTest, GradientsMatchThePerRowLoopOnEveryTier) {
  // BatchGradient and LossGradient take their margins from the block
  // kernel; a per-row loop (dot, derivative, axpy, row by row) must
  // give the same gradient, loss sum and work count, bit for bit.
  SimdLevelGuard guard;
  Rng rng(106);
  const size_t rows = 3 * kMarginChunk + 5;
  for (const bool valued : {false, true}) {
    const CsrBlock block = TailBlock(rows, 64, valued, &rng);
    DenseVector w(64);
    for (size_t i = 0; i < w.dim(); ++i) w[i] = rng.NextDouble(-0.3, 0.3);
    const std::vector<size_t> list = TailList(rows, &rng);
    for (LossKind kind : {LossKind::kHinge, LossKind::kLogistic}) {
      const GlmObjective objective(
          kind, Regularizer(RegularizerKind::kNone, 0.0), false);
      const Loss& loss = objective.loss();
      for (simd::SimdLevel level : AvailableLevels()) {
        SCOPED_TRACE(std::string(simd::SimdLevelName(level)) + " " +
                     loss.name() + (valued ? " valued" : " value-free"));
        simd::SetSimdLevel(level);
        DenseVector ref(w.dim());
        double ref_loss = 0.0;
        uint64_t ref_work = 0;
        auto per_row = [&](size_t r, bool sum_loss) {
          const size_t n = block.row_nnz(r);
          const double margin =
              w.Dot(block.row_indices(r), block.row_values(r), n);
          const double d = loss.Derivative(margin, block.label(r));
          if (sum_loss) ref_loss += loss.Value(margin, block.label(r));
          ref_work += n;
          if (d != 0.0) {
            ref.AddScaled(block.row_indices(r), block.row_values(r), n, d);
            ref_work += n;
          }
        };
        for (size_t r : list) per_row(r, false);
        DenseVector grad(w.dim());
        const ComputeStats batch =
            objective.BatchGradient(block, list, w, &grad);
        EXPECT_EQ(batch.nnz_processed, ref_work);
        for (size_t i = 0; i < w.dim(); ++i) {
          ASSERT_EQ(grad[i], ref[i]) << "batch coordinate " << i;
        }

        ref.SetZero();
        ref_work = 0;
        for (size_t r = 0; r < rows; ++r) per_row(r, true);
        grad.SetZero();
        double loss_sum = 0.0;
        const ComputeStats full =
            objective.LossGradient(block, w, &grad, &loss_sum);
        EXPECT_EQ(full.nnz_processed, ref_work);
        EXPECT_EQ(loss_sum, ref_loss);
        for (size_t i = 0; i < w.dim(); ++i) {
          ASSERT_EQ(grad[i], ref[i]) << "full-pass coordinate " << i;
        }
      }
    }
  }
}

TEST(RowMarginsDeathTest, GradientThatAliasesTheModelIsRejected) {
  // The margins of a chunk are all taken before its first axpy, which
  // is the per-row loop's arithmetic only while the gradient is not w.
  Rng rng(107);
  const CsrBlock block = TailBlock(20, 16, true, &rng);
  const GlmObjective objective(
      LossKind::kHinge, Regularizer(RegularizerKind::kNone, 0.0), false);
  DenseVector w(16);
  const std::vector<size_t> batch = {0, 3, 7};
  EXPECT_DEATH(objective.BatchGradient(block, batch, w, &w),
               "gradient aliases w");
  double loss_sum = 0.0;
  EXPECT_DEATH(objective.LossGradient(block, w, &w, &loss_sum),
               "gradient aliases w");
}

}  // namespace
}  // namespace mllibstar
