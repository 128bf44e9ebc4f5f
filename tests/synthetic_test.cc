#include "data/synthetic.h"

#include <gtest/gtest.h>

#include "common/fnv1a.h"
#include "core/csr_block.h"
#include "core/model.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

/// FNV-1a over the exact bit patterns of a dataset's rows, read back
/// through Dataset::point; any single-ulp change in a label, index, or
/// value changes the digest.
uint64_t PointsChecksum(const Dataset& data) {
  uint64_t h = kFnv1aBasis;
  for (size_t i = 0; i < data.size(); ++i) {
    const DataPoint p = data.point(i);
    Fnv1aMix(p.label, &h);
    for (size_t k = 0; k < p.features.nnz(); ++k) {
      Fnv1aMix(static_cast<uint64_t>(p.features.indices[k]), &h);
      Fnv1aMix(p.features.values[k], &h);
    }
  }
  return h;
}

/// FNV-1a over a dataset's shape and every row's label, indices and
/// values, each row read back through Dataset::point.
uint64_t DatasetChecksum(const Dataset& data) {
  uint64_t h = kFnv1aBasis;
  Fnv1aMix(static_cast<uint64_t>(data.size()), &h);
  Fnv1aMix(static_cast<uint64_t>(data.num_features()), &h);
  for (size_t i = 0; i < data.size(); ++i) {
    const DataPoint p = data.point(i);
    Fnv1aMix(p.label, &h);
    Fnv1aMix(static_cast<uint64_t>(p.nnz()), &h);
    for (size_t k = 0; k < p.nnz(); ++k) {
      Fnv1aMix(static_cast<uint64_t>(p.features.indices[k]), &h);
      Fnv1aMix(p.features.values[k], &h);
    }
  }
  return h;
}

TEST(SyntheticTest, GeneratesRequestedShape) {
  SyntheticSpec spec;
  spec.name = "tiny";
  spec.num_instances = 200;
  spec.num_features = 50;
  spec.avg_nnz = 5;
  spec.seed = 1;
  const Dataset ds = GenerateSynthetic(spec);
  EXPECT_EQ(ds.size(), 200u);
  EXPECT_EQ(ds.num_features(), 50u);
  EXPECT_EQ(ds.name(), "tiny");
  const double avg = ds.Stats().avg_nnz_per_row;
  EXPECT_GT(avg, 2.0);
  EXPECT_LT(avg, 10.0);
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  SyntheticSpec spec;
  spec.name = "det";
  spec.num_instances = 50;
  spec.num_features = 30;
  spec.seed = 42;
  const Dataset a = GenerateSynthetic(spec);
  const Dataset b = GenerateSynthetic(spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.point(i).label, b.point(i).label);
    ASSERT_EQ(a.point(i).features.indices, b.point(i).features.indices);
  }
}

TEST(SyntheticTest, GeneratorOutputMatchesGoldenDigest) {
  // Golden digest: pins GenerateSynthetic's exact output, so any change
  // to the drawing recipe is caught. Update ONLY for an intentional
  // format change.
  SyntheticSpec spec;
  spec.name = "regression";
  spec.num_instances = 120;
  spec.num_features = 80;
  spec.seed = 42;
  EXPECT_EQ(PointsChecksum(GenerateSynthetic(spec)),
            0x4022d081e10ed254ull);
}

TEST(SyntheticPinTest, PresetsArePinned) {
  // Every Table I preset at scale 1e-4, and one spec with N(0,1)
  // values, pinned row by row: the generator's draws, their order and
  // the Rng stream behind them. Update ONLY for an intentional change
  // to the drawing recipe.
  SyntheticSpec valued = KddbSpec(1e-4);
  valued.name = "kddb-valued";
  valued.gaussian_values = true;
  const struct {
    SyntheticSpec spec;
    uint64_t digest;
  } kPins[] = {
      {AvazuSpec(1e-4), 0xa130b8f83ad10656ull},
      {UrlSpec(1e-4), 0x2236e9b13a027f45ull},
      {KddbSpec(1e-4), 0x383fae1d742df749ull},
      {Kdd12Spec(1e-4), 0xacfdedf72294377cull},
      {WxSpec(1e-4), 0x18cab2f31ceee698ull},
      {valued, 0xbe324981667c72c3ull},
  };
  for (const auto& pin : kPins) {
    const uint64_t digest = DatasetChecksum(GenerateSynthetic(pin.spec));
    EXPECT_EQ(digest, pin.digest)
        << pin.spec.name << ": 0x" << std::hex << digest;
  }
}

TEST(SyntheticTest, RowsAreSortedAndInRange) {
  SyntheticSpec spec;
  spec.num_instances = 300;
  spec.num_features = 40;
  spec.avg_nnz = 8;
  spec.seed = 5;
  const Dataset ds = GenerateSynthetic(spec);
  for (size_t i = 0; i < ds.size(); ++i) {
    const DataPoint p = ds.point(i);
    EXPECT_TRUE(p.features.IsSorted());
    EXPECT_GE(p.nnz(), 1u);
    EXPECT_LT(p.features.indices.back(), 40u);
    EXPECT_TRUE(p.label == 1.0 || p.label == -1.0);
  }
}

TEST(SyntheticTest, BothClassesPresent) {
  const Dataset ds = GenerateSynthetic(AvazuSpec(1e-4));
  size_t pos = 0;
  for (double label : ds.rows().labels) {
    if (label > 0) ++pos;
  }
  EXPECT_GT(pos, ds.size() / 10);
  EXPECT_LT(pos, ds.size() * 9 / 10);
}

TEST(SyntheticTest, IsLearnable) {
  // A linear model trained by SGD should beat chance comfortably —
  // the data comes from a (noisy) linear teacher.
  SyntheticSpec spec = AvazuSpec(1e-4);
  const Dataset ds = GenerateSynthetic(spec);
  const GlmObjective objective(
      LossKind::kLogistic, Regularizer(RegularizerKind::kNone, 0.0), true);
  const CsrBlock& block = ds.rows();
  DenseVector w(ds.num_features());
  Rng rng(3);
  for (int epoch = 0; epoch < 5; ++epoch) {
    objective.SgdEpoch(block, 0.5, &rng, &w);
  }
  EXPECT_GT(Accuracy(block, w), 0.8);
}

TEST(SyntheticPresetTest, TableOneRatiosPreserved) {
  // Determined datasets: more instances than features.
  EXPECT_FALSE(GenerateSynthetic(AvazuSpec(1e-3)).Stats().underdetermined);
  EXPECT_FALSE(GenerateSynthetic(Kdd12Spec(1e-3)).Stats().underdetermined);
  // Underdetermined datasets: more features than instances.
  EXPECT_TRUE(GenerateSynthetic(UrlSpec(1e-3)).Stats().underdetermined);
  EXPECT_TRUE(GenerateSynthetic(KddbSpec(1e-3)).Stats().underdetermined);
}

TEST(SyntheticPresetTest, SpecByNameRoundTrip) {
  for (const char* name : {"avazu", "url", "kddb", "kdd12", "wx"}) {
    const Result<SyntheticSpec> spec = SpecByName(name);
    ASSERT_TRUE(spec.ok()) << spec.status();
    EXPECT_EQ(spec->name, name);
  }
  const Result<SyntheticSpec> unknown = SpecByName("unknown");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("'unknown'"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("avazu|url|kddb|kdd12|wx"),
            std::string::npos);
}

TEST(SyntheticPresetTest, ScaleControlsSize) {
  const SyntheticSpec small = AvazuSpec(1e-4);
  const SyntheticSpec large = AvazuSpec(1e-3);
  EXPECT_LT(small.num_instances, large.num_instances);
  EXPECT_LE(small.num_features, large.num_features);
}

TEST(SyntheticPresetTest, WxIsTheLargest) {
  const auto wx = WxSpec(1e-3);
  for (const auto& other : {AvazuSpec(1e-3), UrlSpec(1e-3), KddbSpec(1e-3),
                            Kdd12Spec(1e-3)}) {
    EXPECT_GE(wx.num_instances * wx.avg_nnz,
              other.num_instances * other.avg_nnz / 2)
        << other.name;
  }
}

}  // namespace
}  // namespace mllibstar
