#include "core/regularizer.h"

#include <gtest/gtest.h>

namespace mllibstar {
namespace {

DenseVector Vec(std::vector<double> values) {
  return DenseVector(std::move(values));
}

TEST(NoRegularizerTest, ZeroValueAndNoOpStep) {
  // kNone ignores the strength it is given.
  const Regularizer reg(RegularizerKind::kNone, 0.5);
  DenseVector w = Vec({1.0, -2.0});
  EXPECT_DOUBLE_EQ(reg.Value(w), 0.0);
  reg.ApplyGradientStep(&w, 0.1);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], -2.0);
  DenseVector grad = Vec({0.25, 0.5});
  reg.AddGradient(w, &grad);
  EXPECT_DOUBLE_EQ(grad[0], 0.25);
  EXPECT_DOUBLE_EQ(grad[1], 0.5);
  EXPECT_DOUBLE_EQ(reg.lambda(), 0.0);
}

TEST(L2RegularizerTest, Value) {
  const Regularizer reg(RegularizerKind::kL2, 0.1);
  EXPECT_DOUBLE_EQ(reg.Value(Vec({3.0, 4.0})), 0.5 * 0.1 * 25.0);
  EXPECT_DOUBLE_EQ(reg.lambda(), 0.1);
}

TEST(L2RegularizerTest, GradientStepIsShrinkage) {
  const Regularizer reg(RegularizerKind::kL2, 0.5);
  DenseVector w = Vec({2.0, -4.0});
  reg.ApplyGradientStep(&w, 0.1);  // w *= (1 - 0.1*0.5) = 0.95
  EXPECT_DOUBLE_EQ(w[0], 1.9);
  EXPECT_DOUBLE_EQ(w[1], -3.8);
}

TEST(RegularizerFactoryTest, Names) {
  EXPECT_EQ(Regularizer(RegularizerKind::kNone, 0).name(), "none");
  EXPECT_EQ(Regularizer(RegularizerKind::kL2, 0.1).name(), "l2");
}

// Property: the L2 gradient step always decreases the penalty.
TEST(RegularizerProperty, StepsDecreasePenalty) {
  const Regularizer reg(RegularizerKind::kL2, 0.3);
  DenseVector w = Vec({1.0, -2.0, 0.7, 0.01});
  const double before = reg.Value(w);
  reg.ApplyGradientStep(&w, 0.05);
  EXPECT_LT(reg.Value(w), before);
}

}  // namespace
}  // namespace mllibstar
