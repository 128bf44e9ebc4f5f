// Tests for the SIMD kernel layer (core/simd, DESIGN §13).
//
// The load-bearing property is the bit-exactness contract: every
// dispatch tier must reproduce the scalar reference bit-for-bit, so
// the choice of SIMD level can never perturb a simulated result.
#include "core/simd/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

}  // namespace
}  // namespace mllibstar
