// Tests for the SIMD kernel layer (core/simd) and the mixed-precision
// compute path (DESIGN §13).
//
// The load-bearing property is the f64 bit-exactness contract: every
// dispatch tier must reproduce the scalar reference bit-for-bit, so
// the choice of SIMD level can never perturb a simulated result. The
// f32 kernels are tolerance-checked instead (they read narrowed
// values and the AVX2/AVX-512 tiers fuse multiply-adds), with the
// budget documented in DESIGN §13.
#include "core/simd/dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/csr_block.h"
#include "core/loss.h"
#include "core/simd/kernels.h"
#include "core/vector.h"
#include "data/synthetic.h"
#include "train/trainer.h"
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
  for (simd::SimdLevel l : {simd::SimdLevel::kSse2, simd::SimdLevel::kAvx2,
                            simd::SimdLevel::kAvx512}) {
    if (detected >= l) levels.push_back(l);
  }
  return levels;
}

// Lengths chosen to cover every vector-loop remainder: 0..16 hits all
// 4-wide and 8-wide tails, 31..33 straddles the AVX-512 dot's
// wide-path threshold, and the larger ones exercise multi-block rows.
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
  std::vector<float> values_f32;
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
    const double v = rng->NextDouble(-1.0, 1.0);
    row.values.push_back(v);
    row.values_f32.push_back(static_cast<float>(v));
  }
  return row;
}

TEST(DispatchTest, LevelNamesRoundTrip) {
  for (simd::SimdLevel level :
       {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
        simd::SimdLevel::kAvx2, simd::SimdLevel::kAvx512}) {
    const auto parsed = simd::ParseSimdLevel(simd::SimdLevelName(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(simd::ParseSimdLevel("auto").has_value());
  EXPECT_FALSE(simd::ParseSimdLevel("avx999").has_value());
}

TEST(DispatchTest, SetLevelClampsToDetected) {
  SimdLevelGuard guard;
  const simd::SimdLevel detected = simd::DetectedSimdLevel();
  const simd::SimdLevel applied = simd::SetSimdLevel(simd::SimdLevel::kAvx512);
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

// ---- f64 bit-exactness across tiers --------------------------------

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

// ---- f32 tolerance across tiers ------------------------------------

TEST(KernelF32ToleranceTest, SparseDotF32NearF64) {
  Rng rng(104);
  const size_t dim = 1024;
  std::vector<double> w(dim);
  for (double& v : w) v = rng.NextDouble(-2.0, 2.0);
  const simd::KernelDispatch& scalar =
      simd::KernelsFor(simd::SimdLevel::kScalar);
  for (size_t nnz : RemainderLengths()) {
    const TestRow row = MakeSortedRow(dim, nnz, &rng);
    const double ref64 =
        scalar.sparse_dot_f64(w.data(), row.indices.data(),
                              row.values.data(), nnz);
    const double ref32 =
        scalar.sparse_dot_f32(w.data(), row.indices.data(),
                              row.values_f32.data(), nnz);
    // Value narrowing: one 2^-24 relative rounding per element.
    EXPECT_NEAR(ref32, ref64,
                1e-6 * (static_cast<double>(nnz) + 1.0))
        << "nnz=" << nnz;
    for (simd::SimdLevel level : AvailableLevels()) {
      const double got = simd::KernelsFor(level).sparse_dot_f32(
          w.data(), row.indices.data(), row.values_f32.data(), nnz);
      // Cross-tier: same f32 inputs, only association/FMA rounding
      // differs (f64 accumulators), so the tiers agree very tightly.
      EXPECT_NEAR(got, ref32, 1e-10 * (std::fabs(ref32) + 1.0))
          << simd::SimdLevelName(level) << " nnz=" << nnz;
    }
  }
}

TEST(KernelF32ToleranceTest, SparseAxpyF32NearF64) {
  Rng rng(105);
  const size_t dim = 1024;
  std::vector<double> w0(dim);
  for (double& v : w0) v = rng.NextDouble(-2.0, 2.0);
  const simd::KernelDispatch& scalar =
      simd::KernelsFor(simd::SimdLevel::kScalar);
  for (size_t nnz : RemainderLengths()) {
    const TestRow row = MakeSortedRow(dim, nnz, &rng);
    const double alpha = rng.NextDouble(-1.0, 1.0);
    std::vector<double> ref = w0;
    scalar.sparse_axpy_f32(ref.data(), row.indices.data(),
                           row.values_f32.data(), nnz, alpha);
    for (simd::SimdLevel level : AvailableLevels()) {
      std::vector<double> got = w0;
      simd::KernelsFor(level).sparse_axpy_f32(
          got.data(), row.indices.data(), row.values_f32.data(), nnz,
          alpha);
      for (size_t i = 0; i < dim; ++i) {
        ASSERT_NEAR(got[i], ref[i], 1e-12)
            << simd::SimdLevelName(level) << " nnz=" << nnz << " i=" << i;
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
  const CsrBlock block = CsrBlock::FromPoints(data.points());
  ASSERT_FALSE(block.value_free);
  ASSERT_FALSE(block.values.empty());
  ASSERT_FALSE(block.values_f32.empty());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.offsets.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.indices.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.values.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.values_f32.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(block.labels.data()) % 64, 0u);

  // A value-free block's runs of ones are aligned the same way.
  spec.gaussian_values = false;
  const CsrBlock ones =
      CsrBlock::FromPoints(GenerateSynthetic(spec).points());
  ASSERT_TRUE(ones.value_free);
  ASSERT_FALSE(ones.ones.empty());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ones.ones.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ones.ones_f32.data()) % 64, 0u);
}

TEST(CsrAlignmentTest, FinalizeBuildsF32Copy) {
  SyntheticSpec spec;
  spec.name = "simd_f32copy";
  spec.num_instances = 32;
  spec.num_features = 100;
  spec.avg_nnz = 10;
  spec.seed = 4;
  spec.gaussian_values = true;  // values that f32 actually rounds
  const Dataset data = GenerateSynthetic(spec);
  const CsrBlock block = CsrBlock::FromPoints(data.points());
  ASSERT_FALSE(block.value_free);
  ASSERT_TRUE(block.has_f32());
  ASSERT_EQ(block.values.size(), block.nnz());
  ASSERT_EQ(block.values_f32.size(), block.values.size());
  for (size_t i = 0; i < block.values.size(); ++i) {
    EXPECT_EQ(block.values_f32[i], static_cast<float>(block.values[i]));
  }
}

// ---- Fused passes: f64 bit-exact per tier, f32 within budget -------

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
  const CsrBlock block = CsrBlock::FromPoints(data.points());
  auto loss = MakeLoss(LossKind::kLogistic);
  auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);
  const auto objective = MakeBinaryObjective(loss.get(), none.get(), true);
  DenseVector w(spec.num_features);
  Rng rng(7);
  for (size_t i = 0; i < w.dim(); ++i) w[i] = rng.NextDouble(-0.5, 0.5);

  simd::SetSimdLevel(simd::SimdLevel::kScalar);
  DenseVector ref_grad(w.dim());
  double ref_loss = 0.0;
  objective->LossGradient(block, w, &ref_grad, &ref_loss);

  for (simd::SimdLevel level : AvailableLevels()) {
    simd::SetSimdLevel(level);
    DenseVector grad(w.dim());
    double loss_sum = 0.0;
    objective->LossGradient(block, w, &grad, &loss_sum);
    EXPECT_EQ(loss_sum, ref_loss) << simd::SimdLevelName(level);
    for (size_t i = 0; i < w.dim(); ++i) {
      ASSERT_EQ(grad[i], ref_grad[i])
          << simd::SimdLevelName(level) << " i=" << i;
    }
  }
}

TEST(FusedKernelTest, F32FusedPassWithinBudget) {
  SimdLevelGuard guard;
  SyntheticSpec spec;
  spec.name = "simd_fused32";
  spec.num_instances = 200;
  spec.num_features = 300;
  spec.avg_nnz = 24;
  spec.seed = 10;
  spec.gaussian_values = true;  // valued rows: f32 rounds them
  const Dataset data = GenerateSynthetic(spec);
  const CsrBlock block = CsrBlock::FromPoints(data.points());
  auto loss = MakeLoss(LossKind::kLogistic);
  auto none = MakeRegularizer(RegularizerKind::kNone, 0.0);
  const auto f64 = MakeBinaryObjective(loss.get(), none.get(), true);
  const auto f32 = MakeBinaryObjective(loss.get(), none.get(), true,
                                       ComputePrecision::kF32);
  DenseVector w(spec.num_features);
  Rng rng(8);
  for (size_t i = 0; i < w.dim(); ++i) w[i] = rng.NextDouble(-0.5, 0.5);

  simd::SetSimdLevel(simd::SimdLevel::kScalar);
  DenseVector ref_grad(w.dim());
  double ref_loss = 0.0;
  f64->LossGradient(block, w, &ref_grad, &ref_loss);

  // DESIGN §13 budget: 1e-4 relative on the fused loss and gradient
  // norm; with f64 accumulation the observed drift is far smaller.
  constexpr double kBudget = 1e-4;
  for (simd::SimdLevel level : AvailableLevels()) {
    simd::SetSimdLevel(level);
    DenseVector grad(w.dim());
    double loss_sum = 0.0;
    f32->LossGradient(block, w, &grad, &loss_sum);
    EXPECT_NEAR(loss_sum, ref_loss,
                kBudget * std::max(1.0, std::fabs(ref_loss)))
        << simd::SimdLevelName(level);
    EXPECT_NEAR(grad.Norm2(), ref_grad.Norm2(),
                kBudget * std::max(1.0, ref_grad.Norm2()))
        << simd::SimdLevelName(level);
  }
}

// ---- End-to-end mixed-precision training ---------------------------

Dataset TrainData() {
  SyntheticSpec spec;
  spec.name = "simd_train";
  spec.num_instances = 800;
  spec.num_features = 100;
  spec.avg_nnz = 8;
  spec.seed = 77;
  return GenerateSynthetic(spec);
}

ClusterConfig TrainCluster() {
  ClusterConfig config = ClusterConfig::Cluster1(4);
  config.straggler_sigma = 0.0;
  return config;
}

TrainerConfig TrainBaseConfig() {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.5;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 12;
  config.seed = 5;
  return config;
}

class MixedPrecisionTrainTest : public testing::TestWithParam<SystemKind> {};

TEST_P(MixedPrecisionTrainTest, F32ObjectiveTracksF64) {
  const Dataset data = TrainData();
  TrainerConfig f64_config = TrainBaseConfig();
  TrainerConfig f32_config = TrainBaseConfig();
  f32_config.compute_precision = ComputePrecision::kF32;

  const TrainResult r64 =
      MakeTrainer(GetParam(), f64_config)->Train(data, TrainCluster());
  const TrainResult r32 =
      MakeTrainer(GetParam(), f32_config)->Train(data, TrainCluster());
  ASSERT_FALSE(r32.curve.empty());
  EXPECT_FALSE(r32.diverged);

  // The f32 path must still learn...
  const double initial = r32.curve.points().front().objective;
  EXPECT_LT(r32.curve.BestObjective(), initial * 0.9)
      << SystemName(GetParam());
  // ...and land near the f64 objective. Evaluation is always f64, so
  // this bound sees real precision drift, amplified by the training
  // dynamics — hence much looser than the per-pass kernel budget.
  EXPECT_NEAR(r32.curve.BestObjective(), r64.curve.BestObjective(),
              0.05 * std::fabs(r64.curve.BestObjective()))
      << SystemName(GetParam());
}

TEST_P(MixedPrecisionTrainTest, F32Deterministic) {
  const Dataset data = TrainData();
  TrainerConfig config = TrainBaseConfig();
  config.compute_precision = ComputePrecision::kF32;
  config.max_comm_steps = 5;
  const TrainResult a =
      MakeTrainer(GetParam(), config)->Train(data, TrainCluster());
  const TrainResult b =
      MakeTrainer(GetParam(), config)->Train(data, TrainCluster());
  ASSERT_EQ(a.curve.points().size(), b.curve.points().size());
  for (size_t i = 0; i < a.curve.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve.points()[i].objective,
                     b.curve.points()[i].objective);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, MixedPrecisionTrainTest,
    testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                    SystemKind::kMllibStar, SystemKind::kPetuum,
                    SystemKind::kPetuumStar, SystemKind::kAngel,
                    SystemKind::kMllibLbfgs),
    [](const testing::TestParamInfo<SystemKind>& info) {
      std::string name = SystemName(info.param);
      for (char& c : name) {
        if (c == '*' || c == '+' || c == '-') c = '_';
      }
      if (name.back() == '_') name += "star";
      return name;
    });

}  // namespace
}  // namespace mllibstar
