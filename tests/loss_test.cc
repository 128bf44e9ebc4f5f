#include "core/loss.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mllibstar {
namespace {

// Numerical derivative for property checks.
double NumericDerivative(const Loss& loss, double margin, double label) {
  const double h = 1e-6;
  return (loss.Value(margin + h, label) - loss.Value(margin - h, label)) /
         (2 * h);
}

TEST(LogisticLossTest, ValueAtZeroMargin) {
  auto loss = MakeLoss(LossKind::kLogistic);
  EXPECT_NEAR(loss->Value(0.0, 1.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(loss->Value(0.0, -1.0), std::log(2.0), 1e-12);
}

TEST(LogisticLossTest, LargeMarginsAreStable) {
  auto loss = MakeLoss(LossKind::kLogistic);
  // Correctly classified with huge margin: loss ~ 0, no overflow.
  EXPECT_NEAR(loss->Value(1000.0, 1.0), 0.0, 1e-12);
  // Misclassified with huge margin: loss ~ |margin|, no overflow.
  EXPECT_NEAR(loss->Value(-1000.0, 1.0), 1000.0, 1e-9);
  EXPECT_TRUE(std::isfinite(loss->Derivative(-1000.0, 1.0)));
  EXPECT_TRUE(std::isfinite(loss->Derivative(1000.0, 1.0)));
}

TEST(LogisticLossTest, DerivativeSign) {
  auto loss = MakeLoss(LossKind::kLogistic);
  // For label +1 the derivative w.r.t. margin is always negative.
  EXPECT_LT(loss->Derivative(0.0, 1.0), 0.0);
  EXPECT_LT(loss->Derivative(5.0, 1.0), 0.0);
  // For label -1 it is always positive.
  EXPECT_GT(loss->Derivative(0.0, -1.0), 0.0);
}

TEST(HingeLossTest, ValueAndFlatRegion) {
  auto loss = MakeLoss(LossKind::kHinge);
  EXPECT_DOUBLE_EQ(loss->Value(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(loss->Value(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(loss->Value(-1.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(loss->Derivative(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(loss->Derivative(0.5, 1.0), -1.0);
}

TEST(SquaredLossTest, ValueAndDerivative) {
  auto loss = MakeLoss(LossKind::kSquared);
  EXPECT_DOUBLE_EQ(loss->Value(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(loss->Derivative(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(loss->Derivative(1.0, 1.0), 0.0);
}

TEST(LossFactoryTest, KindsRoundTrip) {
  EXPECT_EQ(MakeLoss(LossKind::kLogistic)->kind(), LossKind::kLogistic);
  EXPECT_EQ(MakeLoss(LossKind::kHinge)->kind(), LossKind::kHinge);
  EXPECT_EQ(MakeLoss(LossKind::kSquared)->kind(), LossKind::kSquared);
  EXPECT_EQ(MakeLoss(LossKind::kLogistic)->name(), "logistic");
}

TEST(LossFactoryTest, FromName) {
  EXPECT_EQ(LossKindFromName("logistic").value(), LossKind::kLogistic);
  EXPECT_EQ(LossKindFromName("squared").value(), LossKind::kSquared);
  EXPECT_EQ(LossKindFromName("hinge").value(), LossKind::kHinge);
  const Result<LossKind> unknown = LossKindFromName("banana");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().message().find("'banana'"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("logistic|hinge|squared"),
            std::string::npos);
}

// Parameterized property suite: every loss is convex-consistent with
// its derivative, checked against numerical differentiation away from
// the hinge kink.
class LossDerivativeTest : public testing::TestWithParam<LossKind> {};

TEST_P(LossDerivativeTest, MatchesNumericalDerivative) {
  auto loss = MakeLoss(GetParam());
  for (double label : {-1.0, 1.0}) {
    for (double margin = -3.0; margin <= 3.0; margin += 0.37) {
      if (GetParam() == LossKind::kHinge &&
          std::fabs(label * margin - 1.0) < 0.01) {
        continue;  // kink
      }
      EXPECT_NEAR(loss->Derivative(margin, label),
                  NumericDerivative(*loss, margin, label), 1e-4)
          << loss->name() << " margin=" << margin << " label=" << label;
    }
  }
}

TEST_P(LossDerivativeTest, NonNegativeValue) {
  auto loss = MakeLoss(GetParam());
  for (double label : {-1.0, 1.0}) {
    for (double margin = -10.0; margin <= 10.0; margin += 0.5) {
      EXPECT_GE(loss->Value(margin, label), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossDerivativeTest,
                         testing::Values(LossKind::kLogistic,
                                         LossKind::kHinge,
                                         LossKind::kSquared));

}  // namespace
}  // namespace mllibstar
