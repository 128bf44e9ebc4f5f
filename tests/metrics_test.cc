#include "core/metrics.h"

#include <gtest/gtest.h>

namespace mllibstar {
namespace {

DataPoint MakePoint(double label, FeatureIndex index, double value) {
  DataPoint p;
  p.label = label;
  p.features.Push(index, value);
  return p;
}

// Two features: w = (1, -1); margin = x0 - x1.
DenseVector TestWeights() {
  return DenseVector(std::vector<double>{1.0, -1.0});
}

TEST(ConfusionTest, CountsAllFourCells) {
  const CsrBlock rows = CsrBlock::FromPoints({
      MakePoint(1.0, 0, 2.0),    // margin +2, label + -> TP
      MakePoint(-1.0, 0, 2.0),   // margin +2, label - -> FP
      MakePoint(-1.0, 1, 2.0),   // margin -2, label - -> TN
      MakePoint(1.0, 1, 2.0),    // margin -2, label + -> FN
  });
  const ConfusionMatrix cm = ComputeConfusion(rows, TestWeights());
  EXPECT_EQ(cm.true_positives, 1u);
  EXPECT_EQ(cm.false_positives, 1u);
  EXPECT_EQ(cm.true_negatives, 1u);
  EXPECT_EQ(cm.false_negatives, 1u);
  EXPECT_EQ(cm.total(), 4u);
}

TEST(ConfusionTest, ThresholdShiftsDecisions) {
  const CsrBlock rows =
      CsrBlock::FromPoints({MakePoint(1.0, 0, 1.0)});  // margin +1
  EXPECT_EQ(ComputeConfusion(rows, TestWeights(), 0.5).true_positives, 1u);
  EXPECT_EQ(ComputeConfusion(rows, TestWeights(), 1.5).false_negatives, 1u);
}

TEST(RocAucTest, PerfectRankingIsOne) {
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2, 0.8, 0.9}, {-1, -1, 1, 1}), 1.0);
}

TEST(RocAucTest, InvertedRankingIsZero) {
  EXPECT_DOUBLE_EQ(RocAuc({0.9, 0.8, 0.2, 0.1}, {-1, -1, 1, 1}), 0.0);
}

TEST(RocAucTest, AllTiedIsHalf) {
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.5, 0.5, 0.5}, {-1, 1, -1, 1}), 0.5);
}

TEST(RocAucTest, SingleClassIsHalf) {
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.9}, {1, 1}), 0.5);
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.9}, {-1, -1}), 0.5);
}

TEST(RocAucTest, PartialOverlap) {
  // Scores: neg {1, 3}, pos {2, 4}. Pairs: (1,2)+, (1,4)+, (3,2)-,
  // (3,4)+ -> 3/4 correct orderings.
  EXPECT_DOUBLE_EQ(RocAuc({1, 2, 3, 4}, {-1, 1, -1, 1}), 0.75);
}

TEST(EvaluateClassifierTest, PerfectClassifier) {
  const CsrBlock rows = CsrBlock::FromPoints({
      MakePoint(1.0, 0, 1.0), MakePoint(1.0, 0, 2.0),
      MakePoint(-1.0, 1, 1.0), MakePoint(-1.0, 1, 2.0),
  });
  const ClassificationMetrics m = EvaluateClassifier(rows, TestWeights());
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_DOUBLE_EQ(m.auc, 1.0);
}

TEST(EvaluateClassifierTest, EmptyDataIsZeros) {
  const ClassificationMetrics m = EvaluateClassifier({}, TestWeights());
  EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
  EXPECT_DOUBLE_EQ(m.auc, 0.0);
}

TEST(EvaluateClassifierTest, NoPredictedPositivesGivesZeroPrecision) {
  const CsrBlock rows =
      CsrBlock::FromPoints({MakePoint(1.0, 1, 5.0)});  // margin -5
  const ClassificationMetrics m = EvaluateClassifier(rows, TestWeights());
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
}

TEST(MeanSquaredErrorTest, HandComputed) {
  const CsrBlock rows = CsrBlock::FromPoints({
      MakePoint(3.0, 0, 1.0),   // margin 1, err 2
      MakePoint(-1.0, 1, 1.0),  // margin -1, err 0
  });
  EXPECT_DOUBLE_EQ(MeanSquaredError(rows, TestWeights()), 2.0);
  EXPECT_DOUBLE_EQ(MeanSquaredError({}, TestWeights()), 0.0);
}

TEST(MetricsToStringTest, ContainsAllFields) {
  ClassificationMetrics m;
  m.accuracy = 0.9;
  m.auc = 0.8;
  const std::string text = MetricsToString(m);
  EXPECT_NE(text.find("acc=0.9"), std::string::npos);
  EXPECT_NE(text.find("auc=0.8"), std::string::npos);
}

}  // namespace
}  // namespace mllibstar
