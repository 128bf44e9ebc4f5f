#include "core/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fnv1a.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

// Numerical derivative for property checks.
double NumericDerivative(const Loss& loss, double margin, double label) {
  const double h = 1e-6;
  return (loss.Value(margin + h, label) - loss.Value(margin - h, label)) /
         (2 * h);
}

TEST(LogisticLossTest, ValueAtZeroMargin) {
  const Loss loss(LossKind::kLogistic);
  EXPECT_NEAR(loss.Value(0.0, 1.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(loss.Value(0.0, -1.0), std::log(2.0), 1e-12);
}

TEST(LogisticLossTest, LargeMarginsAreStable) {
  const Loss loss(LossKind::kLogistic);
  // Correctly classified with huge margin: loss ~ 0, no overflow.
  EXPECT_NEAR(loss.Value(1000.0, 1.0), 0.0, 1e-12);
  // Misclassified with huge margin: loss ~ |margin|, no overflow.
  EXPECT_NEAR(loss.Value(-1000.0, 1.0), 1000.0, 1e-9);
  EXPECT_TRUE(std::isfinite(loss.Derivative(-1000.0, 1.0)));
  EXPECT_TRUE(std::isfinite(loss.Derivative(1000.0, 1.0)));
}

TEST(LogisticLossTest, DerivativeSign) {
  const Loss loss(LossKind::kLogistic);
  // For label +1 the derivative w.r.t. margin is always negative.
  EXPECT_LT(loss.Derivative(0.0, 1.0), 0.0);
  EXPECT_LT(loss.Derivative(5.0, 1.0), 0.0);
  // For label -1 it is always positive.
  EXPECT_GT(loss.Derivative(0.0, -1.0), 0.0);
}

TEST(HingeLossTest, ValueAndFlatRegion) {
  const Loss loss(LossKind::kHinge);
  EXPECT_DOUBLE_EQ(loss.Value(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(loss.Value(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(loss.Value(-1.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(loss.Derivative(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(loss.Derivative(0.5, 1.0), -1.0);
}

TEST(SquaredLossTest, ValueAndDerivative) {
  const Loss loss(LossKind::kSquared);
  EXPECT_DOUBLE_EQ(loss.Value(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(loss.Derivative(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(loss.Derivative(1.0, 1.0), 0.0);
}

TEST(LossFactoryTest, KindsRoundTrip) {
  for (LossKind kind :
       {LossKind::kLogistic, LossKind::kHinge, LossKind::kSquared}) {
    const Loss loss(kind);
    EXPECT_EQ(loss.kind(), kind);
    EXPECT_EQ(LossKindFromName(loss.name()).value(), kind);
  }
  EXPECT_EQ(Loss(LossKind::kLogistic).name(), "logistic");
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

TEST(LossPinTest, ValueAndDerivativeBitsArePinned) {
  // Every kind's Value and Derivative bits over margins and labels that
  // reach each branch, the signed zeros, the infinities and NaN. The
  // loss is read through GlmObjective, the one owner every kernel loop
  // goes through. Update ONLY for an intentional change to a loss
  // formula.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double kMargins[] = {-inf,  -1e308, -700.0, -40.0, -2.5, -1.0,
                             -1e-300, -0.0, 0.0,    5e-324, 0.5, 1.0,
                             1.0000000000000002, 2.5, 40.0, 700.0,
                             1e308, inf,    nan};
  const double kLabels[] = {-1.0, 1.0, -0.0, 0.0, 0.5, 3.0, -inf, inf, nan};
  const struct {
    LossKind kind;
    uint64_t digest;
  } kPins[] = {
      {LossKind::kLogistic, 0x274b11e292da78d4ull},
      {LossKind::kHinge, 0x4a7b0bfb6654d896ull},
      {LossKind::kSquared, 0x275238ca0cfc4211ull},
  };
  for (const auto& pin : kPins) {
    const GlmObjective objective(
        pin.kind, Regularizer(RegularizerKind::kNone, 0.0), false);
    const Loss& loss = objective.loss();
    uint64_t digest = kFnv1aBasis;
    for (double label : kLabels) {
      for (double margin : kMargins) {
        Fnv1aMix(loss.Value(margin, label), &digest);
        Fnv1aMix(loss.Derivative(margin, label), &digest);
      }
    }
    EXPECT_EQ(digest, pin.digest)
        << loss.name() << ": 0x" << std::hex << digest;
  }
}

// Parameterized property suite: every loss is convex-consistent with
// its derivative, checked against numerical differentiation away from
// the hinge kink.
class LossDerivativeTest : public testing::TestWithParam<LossKind> {};

TEST_P(LossDerivativeTest, MatchesNumericalDerivative) {
  const Loss loss(GetParam());
  for (double label : {-1.0, 1.0}) {
    for (double margin = -3.0; margin <= 3.0; margin += 0.37) {
      if (GetParam() == LossKind::kHinge &&
          std::fabs(label * margin - 1.0) < 0.01) {
        continue;  // kink
      }
      EXPECT_NEAR(loss.Derivative(margin, label),
                  NumericDerivative(loss, margin, label), 1e-4)
          << loss.name() << " margin=" << margin << " label=" << label;
    }
  }
}

TEST_P(LossDerivativeTest, NonNegativeValue) {
  const Loss loss(GetParam());
  for (double label : {-1.0, 1.0}) {
    for (double margin = -10.0; margin <= 10.0; margin += 0.5) {
      EXPECT_GE(loss.Value(margin, label), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLosses, LossDerivativeTest,
                         testing::Values(LossKind::kLogistic,
                                         LossKind::kHinge,
                                         LossKind::kSquared));

}  // namespace
}  // namespace mllibstar
