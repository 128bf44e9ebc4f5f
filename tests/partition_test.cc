#include "data/partition.h"

#include <gtest/gtest.h>

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

TEST(PartitionDataTest, RoundRobinBalanced) {
  const Dataset ds = MakeDataset(10);
  const auto parts = PartitionRoundRobin(ds, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
}

TEST(PartitionDataTest, RoundRobinCoversAllPoints) {
  const Dataset ds = MakeDataset(17);
  const auto parts = PartitionRoundRobin(ds, 4);
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  EXPECT_EQ(total, 17u);
}

TEST(PartitionDataTest, MorePartitionsThanPoints) {
  const Dataset ds = MakeDataset(2);
  const auto parts = PartitionRoundRobin(ds, 5);
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0].size(), 1u);
  EXPECT_EQ(parts[1].size(), 1u);
  EXPECT_TRUE(parts[2].empty());
}

}  // namespace
}  // namespace mllibstar
