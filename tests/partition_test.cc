#include "data/partition.h"

#include <gtest/gtest.h>

#include "common/fnv1a.h"
#include "data/synthetic.h"

namespace mllibstar {
namespace {

Dataset MakeDataset(size_t n) {
  const size_t dim = 100;
  Dataset ds(dim);
  for (size_t i = 0; i < n; ++i) {
    DataPoint p;
    p.label = (i % 2 == 0) ? 1.0 : -1.0;
    p.features.Push(static_cast<FeatureIndex>(i % dim), 1.0);
    ds.Add(p);
  }
  return ds;
}

// The deal: dataset row i is row i / k of block i % k, bit for bit.
void ExpectDealt(const Dataset& ds, const std::vector<CsrBlock>& parts) {
  const size_t k = parts.size();
  for (size_t i = 0; i < ds.size(); ++i) {
    const DataPoint source = ds.point(i);
    ASSERT_LT(i / k, parts[i % k].rows()) << "row " << i;
    const DataPoint dealt = parts[i % k].PointAt(i / k);
    EXPECT_EQ(dealt.label, source.label) << "row " << i;
    EXPECT_EQ(dealt.features.indices, source.features.indices) << "row " << i;
    EXPECT_EQ(dealt.features.values, source.features.values) << "row " << i;
  }
}

TEST(PartitionDataTest, RoundRobinBalanced) {
  const Dataset ds = MakeDataset(10);
  const std::vector<CsrBlock> parts = PartitionCsr(ds, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].rows(), 4u);
  EXPECT_EQ(parts[1].rows(), 3u);
  EXPECT_EQ(parts[2].rows(), 3u);
  ExpectDealt(ds, parts);
}

TEST(PartitionDataTest, RoundRobinCoversAllPoints) {
  const Dataset ds = MakeDataset(17);
  const std::vector<CsrBlock> parts = PartitionCsr(ds, 4);
  size_t total = 0;
  for (const CsrBlock& part : parts) total += part.rows();
  EXPECT_EQ(total, 17u);
  ExpectDealt(ds, parts);
}

TEST(PartitionDataTest, MorePartitionsThanPoints) {
  const Dataset ds = MakeDataset(2);
  const std::vector<CsrBlock> parts = PartitionCsr(ds, 5);
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0].rows(), 1u);
  EXPECT_EQ(parts[1].rows(), 1u);
  for (size_t r = 2; r < 5; ++r) {
    EXPECT_EQ(parts[r].rows(), 0u);
    EXPECT_EQ(parts[r].nnz(), 0u);
  }
  ExpectDealt(ds, parts);
}

// FNV-1a over every array of every block: the value-free flag, the
// offsets, the indices, the values of a valued block, and the labels.
uint64_t BlocksChecksum(const std::vector<CsrBlock>& parts) {
  uint64_t h = kFnv1aBasis;
  Fnv1aMix(static_cast<uint64_t>(parts.size()), &h);
  for (const CsrBlock& b : parts) {
    Fnv1aMix(static_cast<uint64_t>(b.value_free), &h);
    Fnv1aMix(static_cast<uint64_t>(b.offsets.size()), &h);
    for (uint64_t offset : b.offsets) Fnv1aMix(offset, &h);
    for (FeatureIndex index : b.indices) {
      Fnv1aMix(static_cast<uint64_t>(index), &h);
    }
    if (!b.value_free) {
      Fnv1aMix(static_cast<uint64_t>(b.values.size()), &h);
      for (double value : b.values) Fnv1aMix(value, &h);
    }
    for (double label : b.labels) Fnv1aMix(label, &h);
  }
  return h;
}

// kddb's one-hot rows, except that every 24th row (1, 25, 49, ...)
// takes its N(0,1)-valued twin's values and every 10th row is empty:
// at k = 3 and k = 8 only block 1 is valued.
Dataset MixedDataset() {
  const Dataset ones = GenerateSynthetic(KddbSpec(1e-4));
  SyntheticSpec valued_spec = KddbSpec(1e-4);
  valued_spec.gaussian_values = true;
  const Dataset valued = GenerateSynthetic(valued_spec);
  Dataset mixed(ones.num_features(), "mixed");
  for (size_t i = 0; i < ones.size(); ++i) {
    DataPoint p = i % 24 == 1 ? valued.point(i) : ones.point(i);
    if (i % 10 == 0) p.features = SparseVector();
    mixed.Add(p);
  }
  return mixed;
}

TEST(PartitionPinTest, BlocksArePinned) {
  // PartitionCsr's blocks pinned array by array, at one block, uneven
  // blocks and the figure workloads' 8 workers. Update ONLY for an
  // intentional change to the deal or the block layout.
  const Dataset kddb = GenerateSynthetic(KddbSpec(1e-4));
  const Dataset kdd12 = GenerateSynthetic(Kdd12Spec(1e-4));
  const Dataset mixed = MixedDataset();
  const struct {
    const Dataset* data;
    size_t k;
    uint64_t digest;
  } kPins[] = {
      {&kddb, 1, 0xb9eff4b6fb39279cull},  {&kddb, 3, 0x8165d428682947bdull},
      {&kddb, 8, 0xb13e78b57f784b22ull},  {&kdd12, 1, 0x69f6e1ec35989fc7ull},
      {&kdd12, 3, 0xd39b61ac67c0fa57ull}, {&kdd12, 8, 0x7b9738fae76d183aull},
      {&mixed, 1, 0x987fc95ecbe8b949ull}, {&mixed, 3, 0x50aca9ebaebe4d8cull},
      {&mixed, 8, 0xdee5e9c35cb2bda9ull},
  };
  for (const auto& pin : kPins) {
    const std::vector<CsrBlock> parts = PartitionCsr(*pin.data, pin.k);
    if (pin.data == &mixed) {
      for (size_t r = 0; r < pin.k; ++r) {
        EXPECT_EQ(parts[r].value_free, pin.k > 1 && r != 1) << "block " << r;
      }
    }
    const uint64_t digest = BlocksChecksum(parts);
    EXPECT_EQ(digest, pin.digest)
        << pin.data->name() << " k=" << pin.k << ": 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace mllibstar
