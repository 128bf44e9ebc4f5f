#include "data/split.h"

#include <gtest/gtest.h>

namespace mllibstar {
namespace {

Dataset MakeData(size_t n) {
  Dataset ds(10, "base");
  for (size_t i = 0; i < n; ++i) {
    DataPoint p;
    p.label = (i % 2 == 0) ? 1.0 : -1.0;
    p.features.Push(static_cast<FeatureIndex>(i % 10), 1.0);
    ds.Add(p);
  }
  return ds;
}

TEST(RandomSplitTest, PartitionsEveryPoint) {
  const Dataset data = MakeData(500);
  Rng rng(1);
  const TrainTestSplit split = RandomSplit(data, 0.8, &rng);
  EXPECT_EQ(split.train.size() + split.test.size(), 500u);
  EXPECT_EQ(split.train.num_features(), 10u);
  EXPECT_EQ(split.train.name(), "base/train");
  EXPECT_EQ(split.test.name(), "base/test");
}

TEST(RandomSplitTest, FractionRoughlyRespected) {
  const Dataset data = MakeData(2000);
  Rng rng(2);
  const TrainTestSplit split = RandomSplit(data, 0.8, &rng);
  EXPECT_NEAR(static_cast<double>(split.train.size()) / 2000.0, 0.8, 0.05);
}

TEST(RandomSplitTest, DeterministicGivenSeed) {
  const Dataset data = MakeData(100);
  Rng a(3);
  Rng b(3);
  const TrainTestSplit sa = RandomSplit(data, 0.5, &a);
  const TrainTestSplit sb = RandomSplit(data, 0.5, &b);
  EXPECT_EQ(sa.train.size(), sb.train.size());
}

TEST(RandomSplitTest, ExtremeFractionsClamp) {
  const Dataset data = MakeData(50);
  Rng rng(4);
  EXPECT_EQ(RandomSplit(data, 1.5, &rng).train.size(), 50u);
  EXPECT_EQ(RandomSplit(data, -0.5, &rng).test.size(), 50u);
}

}  // namespace
}  // namespace mllibstar
