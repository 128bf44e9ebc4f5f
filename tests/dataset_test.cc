#include "data/dataset.h"

#include <gtest/gtest.h>

namespace mllibstar {
namespace {

DataPoint MakePoint(double label, std::vector<FeatureIndex> indices) {
  DataPoint p;
  p.label = label;
  for (FeatureIndex i : indices) p.features.Push(i, 1.0);
  return p;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset ds(10, "toy");
  ds.Add(MakePoint(1.0, {0, 3}));
  ds.Add(MakePoint(-1.0, {9}));
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.num_features(), 10u);
  EXPECT_EQ(ds.name(), "toy");
  EXPECT_DOUBLE_EQ(ds.point(0).label, 1.0);
  EXPECT_EQ(ds.point(1).features.indices[0], 9u);
}

TEST(DatasetTest, TotalNnz) {
  Dataset ds(10);
  ds.Add(MakePoint(1.0, {0, 1, 2}));
  ds.Add(MakePoint(-1.0, {5}));
  EXPECT_EQ(ds.TotalNnz(), 4u);
}

TEST(DatasetTest, RowsStayValueFreeUntilAValueIsNotOne) {
  Dataset ds(10, "toy");
  ds.Add(MakePoint(1.0, {0, 3}));
  ds.Add(MakePoint(-1.0, {1, 2, 9}));
  EXPECT_TRUE(ds.rows().value_free);
  EXPECT_TRUE(ds.rows().values.empty());
  EXPECT_EQ(ds.point(1).features.values, std::vector<double>(3, 1.0));

  DataPoint valued = MakePoint(1.0, {4, 5});
  valued.features.values[1] = 0.5;
  ds.Add(valued);
  EXPECT_FALSE(ds.rows().value_free);
  EXPECT_EQ(ds.rows().values.size(), ds.TotalNnz());
  EXPECT_EQ(ds.point(0).features.values, std::vector<double>(2, 1.0));
  EXPECT_EQ(ds.point(2).features.values, valued.features.values);
  EXPECT_EQ(ds.point(2).features.indices, valued.features.indices);
  EXPECT_EQ(ds.point(2).label, 1.0);
}

TEST(DatasetTest, PackedRowsOutsideTheFeatureSpaceDie) {
  CsrBlock rows;
  rows.AppendRow(MakePoint(1.0, {2, 10}));
  EXPECT_DEATH(Dataset(10, "wide", rows), "outside the feature space");
  EXPECT_EQ(Dataset(11, "fits", rows).size(), 1u);
}

TEST(DatasetTest, StatsUnderdeterminedFlag) {
  Dataset wide(1000, "wide");
  wide.Add(MakePoint(1.0, {0}));
  EXPECT_TRUE(wide.Stats().underdetermined);

  Dataset tall(2, "tall");
  tall.Add(MakePoint(1.0, {0}));
  tall.Add(MakePoint(-1.0, {1}));
  tall.Add(MakePoint(1.0, {0}));
  EXPECT_FALSE(tall.Stats().underdetermined);
}

TEST(DatasetTest, StatsCountsMatch) {
  Dataset ds(10, "s");
  ds.Add(MakePoint(1.0, {0, 1}));
  ds.Add(MakePoint(-1.0, {2, 3, 4}));
  const DatasetStats stats = ds.Stats();
  EXPECT_EQ(stats.num_instances, 2u);
  EXPECT_EQ(stats.num_features, 10u);
  EXPECT_EQ(stats.total_nnz, 5u);
  EXPECT_DOUBLE_EQ(stats.avg_nnz_per_row, 2.5);
  EXPECT_GT(stats.approx_bytes, 0u);
}

TEST(DatasetTest, EmptyStats) {
  Dataset ds(5, "empty");
  const DatasetStats stats = ds.Stats();
  EXPECT_EQ(stats.num_instances, 0u);
  EXPECT_DOUBLE_EQ(stats.avg_nnz_per_row, 0.0);
}

}  // namespace
}  // namespace mllibstar
