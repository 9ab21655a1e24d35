#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tensor/ops.h"

namespace vista {
namespace {

TEST(Conv2DTest, IdentityKernel) {
  // A 1x1 kernel with weight 1 and bias 0 is the identity.
  Tensor input(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w(Shape{1, 1, 1, 1}, {1.0f});
  Tensor b(Shape{1}, {0.0f});
  auto out = Conv2D(input, w, b, 1, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->AllClose(input));
}

TEST(Conv2DTest, HandComputed3x3) {
  // 3x3 input, 2x2 all-ones kernel, stride 1, no pad: sliding window sums.
  Tensor input(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::Full(Shape{1, 1, 2, 2}, 1.0f);
  Tensor b(Shape{1}, {0.0f});
  auto out = Conv2D(input, w, b, 1, 0);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(out->at(0), 1 + 2 + 4 + 5);
  EXPECT_FLOAT_EQ(out->at(1), 2 + 3 + 5 + 6);
  EXPECT_FLOAT_EQ(out->at(2), 4 + 5 + 7 + 8);
  EXPECT_FLOAT_EQ(out->at(3), 5 + 6 + 8 + 9);
}

TEST(Conv2DTest, BiasApplied) {
  Tensor input(Shape{1, 2, 2}, {1, 1, 1, 1});
  Tensor w = Tensor::Full(Shape{1, 1, 2, 2}, 1.0f);
  Tensor b(Shape{1}, {10.0f});
  auto out = Conv2D(input, w, b, 1, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 14.0f);
}

TEST(Conv2DTest, PaddingProducesSameSize) {
  Tensor input(Shape{1, 4, 4});
  Tensor w(Shape{2, 1, 3, 3});
  Tensor b(Shape{2});
  auto out = Conv2D(input, w, b, 1, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{2, 4, 4}));
}

TEST(Conv2DTest, StrideDownsamples) {
  Tensor input(Shape{3, 8, 8});
  Tensor w(Shape{4, 3, 2, 2});
  Tensor b(Shape{4});
  auto out = Conv2D(input, w, b, 2, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{4, 4, 4}));
}

TEST(Conv2DTest, MultiChannelSum) {
  // Two input channels; kernel sums both.
  Tensor input(Shape{2, 1, 1}, {3, 4});
  Tensor w = Tensor::Full(Shape{1, 2, 1, 1}, 1.0f);
  Tensor b(Shape{1});
  auto out = Conv2D(input, w, b, 1, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 7.0f);
}

TEST(Conv2DTest, LinearityInInput) {
  Rng rng(3);
  Tensor a = Tensor::RandomGaussian(Shape{2, 5, 5}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{2, 5, 5}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{3, 2, 3, 3}, &rng);
  Tensor zero_bias(Shape{3});
  auto sum = Add(a, b);
  ASSERT_TRUE(sum.ok());
  auto conv_sum = Conv2D(*sum, w, zero_bias, 1, 1);
  auto conv_a = Conv2D(a, w, zero_bias, 1, 1);
  auto conv_b = Conv2D(b, w, zero_bias, 1, 1);
  ASSERT_TRUE(conv_sum.ok());
  auto expected = Add(*conv_a, *conv_b);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(conv_sum->AllClose(*expected, 1e-3f));
}

TEST(Conv2DTest, RejectsChannelMismatch) {
  Tensor input(Shape{3, 4, 4});
  Tensor w(Shape{1, 2, 3, 3});
  Tensor b(Shape{1});
  EXPECT_FALSE(Conv2D(input, w, b, 1, 0).ok());
}

TEST(Conv2DTest, RejectsBadRank) {
  Tensor input(Shape{4, 4});
  Tensor w(Shape{1, 1, 3, 3});
  Tensor b(Shape{1});
  EXPECT_FALSE(Conv2D(input, w, b, 1, 0).ok());
}

TEST(Conv2DTest, RejectsEmptyOutput) {
  Tensor input(Shape{1, 2, 2});
  Tensor w(Shape{1, 1, 5, 5});
  Tensor b(Shape{1});
  EXPECT_FALSE(Conv2D(input, w, b, 1, 0).ok());
}

TEST(MaxPoolTest, HandComputed) {
  Tensor input(Shape{1, 4, 4},
               {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  auto out = MaxPool2D(input, 2, 2);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(out->at(0), 6);
  EXPECT_FLOAT_EQ(out->at(1), 8);
  EXPECT_FLOAT_EQ(out->at(2), 14);
  EXPECT_FLOAT_EQ(out->at(3), 16);
}

TEST(MaxPoolTest, OverlappingWindows) {
  Tensor input(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto out = MaxPool2D(input, 2, 1);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(out->at(0), 5);
  EXPECT_FLOAT_EQ(out->at(3), 9);
}

TEST(AvgPoolTest, HandComputed) {
  Tensor input(Shape{1, 2, 2}, {1, 2, 3, 4});
  auto out = AvgPool2D(input, 2, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 2.5f);
}

TEST(AvgPoolTest, PaddedWindowsUseValidCount) {
  // With padding, border windows average only in-bounds values.
  Tensor input(Shape{1, 2, 2}, {2, 2, 2, 2});
  auto out = AvgPool2D(input, 3, 1, 1);
  ASSERT_TRUE(out.ok());
  for (int64_t i = 0; i < out->num_elements(); ++i) {
    EXPECT_FLOAT_EQ(out->at(i), 2.0f);
  }
}

TEST(GlobalAvgPoolTest, PerChannelMean) {
  Tensor input(Shape{2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  auto out = GlobalAvgPool(input);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->shape(), (Shape{2}));
  EXPECT_FLOAT_EQ(out->at(0), 2.5f);
  EXPECT_FLOAT_EQ(out->at(1), 25.0f);
}

TEST(ReluTest, ClampsNegatives) {
  Tensor input(Shape{4}, {-1, 0, 1, -0.5f});
  Tensor out = Relu(input);
  EXPECT_FLOAT_EQ(out.at(0), 0);
  EXPECT_FLOAT_EQ(out.at(1), 0);
  EXPECT_FLOAT_EQ(out.at(2), 1);
  EXPECT_FLOAT_EQ(out.at(3), 0);
  // Input untouched.
  EXPECT_FLOAT_EQ(input.at(0), -1);
}

// Relu, BatchNormInference and Add write over their input only when the
// caller hands over its only reference; an input shared with another
// tensor is copied and left as it was.
TEST(ReluTest, WritesOverOnlyAnUnsharedInput) {
  Tensor a(Shape{1, 1, 3}, {-1.0f, 2.0f, -3.0f});
  const Tensor alias = a;
  Tensor copied = Relu(a);
  EXPECT_NE(copied.data(), alias.data());
  EXPECT_FLOAT_EQ(alias.at(0), -1.0f);
  EXPECT_FLOAT_EQ(copied.at(0), 0.0f);

  Tensor owned = alias.Clone();
  const float* buffer = owned.data();
  Tensor relu = Relu(std::move(owned));
  EXPECT_EQ(relu.data(), buffer);
  EXPECT_FLOAT_EQ(relu.at(2), 0.0f);
  auto bn = BatchNormInference(std::move(relu), Tensor::Full(Shape{1}, 2.0f),
                               Tensor::Full(Shape{1}, 1.0f));
  ASSERT_TRUE(bn.ok());
  EXPECT_EQ(bn->data(), buffer);
  auto sum = Add(std::move(bn).value(), alias);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->data(), buffer);
  EXPECT_FLOAT_EQ(sum->at(0), 1.0f + -1.0f);
  EXPECT_FLOAT_EQ(sum->at(1), 5.0f + 2.0f);
  EXPECT_FLOAT_EQ(alias.at(1), 2.0f);
}

TEST(FullyConnectedTest, MatVec) {
  Tensor x(Shape{2}, {1, 2});
  Tensor w(Shape{3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor b(Shape{3}, {0, 0, 10});
  auto out = FullyConnected(x, w, b);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 1);
  EXPECT_FLOAT_EQ(out->at(1), 2);
  EXPECT_FLOAT_EQ(out->at(2), 13);
}

TEST(FullyConnectedTest, RejectsDimMismatch) {
  Tensor x(Shape{3});
  Tensor w(Shape{2, 2});
  Tensor b(Shape{2});
  EXPECT_FALSE(FullyConnected(x, w, b).ok());
}

TEST(BatchNormTest, ScaleAndShift) {
  Tensor input(Shape{2, 1, 2}, {1, 2, 3, 4});
  Tensor scale(Shape{2}, {2, 0.5f});
  Tensor shift(Shape{2}, {0, 1});
  auto out = BatchNormInference(input, scale, shift);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 2);
  EXPECT_FLOAT_EQ(out->at(1), 4);
  EXPECT_FLOAT_EQ(out->at(2), 2.5f);
  EXPECT_FLOAT_EQ(out->at(3), 3);
}

TEST(AddTest, Elementwise) {
  Tensor a(Shape{2}, {1, 2});
  Tensor b(Shape{2}, {10, 20});
  auto out = Add(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 11);
  EXPECT_FLOAT_EQ(out->at(1), 22);
}

TEST(AddTest, RejectsShapeMismatch) {
  EXPECT_FALSE(Add(Tensor(Shape{2}), Tensor(Shape{3})).ok());
}

TEST(SoftmaxTest, SumsToOne) {
  Tensor x(Shape{3}, {1, 2, 3});
  auto out = Softmax(x);
  ASSERT_TRUE(out.ok());
  float sum = 0;
  for (int64_t i = 0; i < 3; ++i) sum += out->at(i);
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(out->at(2), out->at(1));
  EXPECT_GT(out->at(1), out->at(0));
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  Tensor x(Shape{2}, {1000.0f, 1000.0f});
  auto out = Softmax(x);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->at(0), 0.5f, 1e-5f);
}

TEST(LrnTest, PreservesShapeAndShrinksMagnitude) {
  Rng rng(1);
  Tensor x = Tensor::RandomGaussian(Shape{8, 3, 3}, &rng, 2.0f);
  auto out = LocalResponseNorm(x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), x.shape());
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    EXPECT_LE(std::fabs(out->at(i)), std::fabs(x.at(i)) + 1e-6f);
  }
}

TEST(GridMaxPoolTest, ReducesToGrid) {
  Tensor input(Shape{1, 4, 4},
               {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  auto out = GridMaxPool(input, 2);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(out->at(0), 6);
  EXPECT_FLOAT_EQ(out->at(1), 8);
  EXPECT_FLOAT_EQ(out->at(2), 14);
  EXPECT_FLOAT_EQ(out->at(3), 16);
}

TEST(GridMaxPoolTest, UnevenDivision) {
  Tensor input(Shape{1, 5, 5});
  input.set(24, 7.0f);  // Bottom-right corner.
  auto out = GridMaxPool(input, 2);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->shape(), (Shape{1, 2, 2}));
  EXPECT_FLOAT_EQ(out->at(3), 7.0f);
}

TEST(GridMaxPoolTest, SmallInputIsIdentity) {
  Tensor input(Shape{3, 1, 1}, {1, 2, 3});
  auto out = GridMaxPool(input, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->AllClose(input));
}

TEST(FlopsTest, ConvAndFcCounts) {
  // 2 FLOPs per MAC.
  EXPECT_EQ(Conv2DFlops(3, 96, 55, 55, 11), 2LL * 3 * 96 * 55 * 55 * 121);
  EXPECT_EQ(FullyConnectedFlops(9216, 4096), 2LL * 9216 * 4096);
}

// Property sweep: pooling output never exceeds the input max and conv
// shapes follow the formula across configurations.
class PoolPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PoolPropertyTest, MaxPoolBoundedByInputMax) {
  const int size = GetParam();
  Rng rng(size);
  Tensor x = Tensor::RandomGaussian(Shape{2, size, size}, &rng);
  float input_max = -1e30f;
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    input_max = std::max(input_max, x.at(i));
  }
  auto out = MaxPool2D(x, 2, 2);
  ASSERT_TRUE(out.ok());
  for (int64_t i = 0; i < out->num_elements(); ++i) {
    EXPECT_LE(out->at(i), input_max + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PoolPropertyTest,
                         ::testing::Values(4, 6, 8, 12, 16, 32));

}  // namespace
}  // namespace vista
