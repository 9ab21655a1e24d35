#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "oracle/kernels.h"
#include "tensor/ops.h"

namespace vista {
namespace {

TEST(Conv2DTest, IdentityKernel) {
  // A 1x1 kernel with weight 1 and bias 0 is the identity.
  Tensor input(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w(Shape{1, 1, 1, 1}, {1.0f});
  Tensor b(Shape{1}, {0.0f});
  auto out = oracle::Conv2D(input, w, b, 1, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->AllClose(input));
}

TEST(Conv2DTest, HandComputed3x3) {
  // 3x3 input, 2x2 all-ones kernel, stride 1, no pad: sliding window sums.
  Tensor input(Shape{1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w = Tensor::Full(Shape{1, 1, 2, 2}, 1.0f);
  Tensor b(Shape{1}, {0.0f});
  auto out = oracle::Conv2D(input, w, b, 1, 0);
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
  auto out = oracle::Conv2D(input, w, b, 1, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 14.0f);
}

TEST(Conv2DTest, PaddingProducesSameSize) {
  Tensor input(Shape{1, 4, 4});
  Tensor w(Shape{2, 1, 3, 3});
  Tensor b(Shape{2});
  auto out = oracle::Conv2D(input, w, b, 1, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{2, 4, 4}));
}

TEST(Conv2DTest, StrideDownsamples) {
  Tensor input(Shape{3, 8, 8});
  Tensor w(Shape{4, 3, 2, 2});
  Tensor b(Shape{4});
  auto out = oracle::Conv2D(input, w, b, 2, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{4, 4, 4}));
}

TEST(Conv2DTest, MultiChannelSum) {
  // Two input channels; kernel sums both.
  Tensor input(Shape{2, 1, 1}, {3, 4});
  Tensor w = Tensor::Full(Shape{1, 2, 1, 1}, 1.0f);
  Tensor b(Shape{1});
  auto out = oracle::Conv2D(input, w, b, 1, 0);
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
  auto conv_sum = oracle::Conv2D(*sum, w, zero_bias, 1, 1);
  auto conv_a = oracle::Conv2D(a, w, zero_bias, 1, 1);
  auto conv_b = oracle::Conv2D(b, w, zero_bias, 1, 1);
  ASSERT_TRUE(conv_sum.ok());
  auto expected = Add(*conv_a, *conv_b);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(conv_sum->AllClose(*expected, 1e-3f));
}

TEST(Conv2DTest, RejectsChannelMismatch) {
  Tensor input(Shape{3, 4, 4});
  Tensor w(Shape{1, 2, 3, 3});
  Tensor b(Shape{1});
  EXPECT_FALSE(oracle::Conv2D(input, w, b, 1, 0).ok());
}

TEST(Conv2DTest, RejectsBadRank) {
  Tensor input(Shape{4, 4});
  Tensor w(Shape{1, 1, 3, 3});
  Tensor b(Shape{1});
  EXPECT_FALSE(oracle::Conv2D(input, w, b, 1, 0).ok());
}

TEST(Conv2DTest, RejectsEmptyOutput) {
  Tensor input(Shape{1, 2, 2});
  Tensor w(Shape{1, 1, 5, 5});
  Tensor b(Shape{1});
  EXPECT_FALSE(oracle::Conv2D(input, w, b, 1, 0).ok());
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
  auto out = oracle::FullyConnected(x, w, b);
  ASSERT_TRUE(out.ok());
  EXPECT_FLOAT_EQ(out->at(0), 1);
  EXPECT_FLOAT_EQ(out->at(1), 2);
  EXPECT_FLOAT_EQ(out->at(2), 13);
}

TEST(FullyConnectedTest, RejectsDimMismatch) {
  Tensor x(Shape{3});
  Tensor w(Shape{2, 2});
  Tensor b(Shape{2});
  EXPECT_FALSE(oracle::FullyConnected(x, w, b).ok());
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

/// The oracle: GridMaxPool as first written, with every window's bounds
/// recomputed, pooling every map not below the target resolution (so a
/// 1 x 1 window turns NaN into -inf).
Tensor NaiveGridMaxPool(const Tensor& input, int grid) {
  const int64_t c = input.shape().dim(0);
  const int64_t h = input.shape().dim(1);
  const int64_t w = input.shape().dim(2);
  if (h < grid || w < grid) return input;
  Tensor out(Shape{c, grid, grid});
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int g1 = 0; g1 < grid; ++g1) {
      for (int g2 = 0; g2 < grid; ++g2) {
        float best = -std::numeric_limits<float>::infinity();
        for (int64_t y = g1 * h / grid; y < (g1 + 1) * h / grid; ++y) {
          for (int64_t x = g2 * w / grid; x < (g2 + 1) * w / grid; ++x) {
            best = std::max(best, input.at((ch * h + y) * w + x));
          }
        }
        out.set((ch * grid + g1) * grid + g2, best);
      }
    }
  }
  return out;
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

TEST(GridMaxPoolTest, MatchesNaiveOracleBitwise) {
  const float specials[] = {-0.0f, 0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  Rng rng(11);
  int checked = 0;
  for (int64_t c : {1, 3, 256}) {
    for (int64_t h = 1; h <= 9; ++h) {
      for (int64_t w = 1; w <= 9; ++w) {
        for (int grid = 1; grid <= 4; ++grid) {
          Tensor input = Tensor::RandomGaussian(Shape{c, h, w}, &rng);
          for (int64_t i = 0; i < input.num_elements(); ++i) {
            if (rng.NextBool(0.3)) input.set(i, specials[rng.NextUint64(5)]);
          }
          const Tensor want = NaiveGridMaxPool(input, grid);
          auto got = GridMaxPool(input, grid);
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(got->shape(), want.shape());
          // The loop itself appends after what the caller already holds.
          std::vector<float> appended = {42.0f};
          ASSERT_TRUE(AppendGridMaxPool(input, grid, &appended).ok());
          ASSERT_EQ(appended.size(), 1 + static_cast<size_t>(
                                             want.num_elements()));
          EXPECT_EQ(appended[0], 42.0f);
          const bool at_resolution = h == grid && w == grid;
          for (int64_t i = 0; i < want.num_elements(); ++i) {
            EXPECT_EQ(Bits(appended[1 + i]), Bits(got->at(i)));
            if (at_resolution && std::isnan(input.at(i))) {
              // At the target resolution pooling is the identity now:
              // NaN passes through where the oracle's 1 x 1 window gave
              // -inf.
              EXPECT_TRUE(std::isnan(got->at(i)));
              EXPECT_EQ(want.at(i), -std::numeric_limits<float>::infinity());
            } else {
              ASSERT_EQ(Bits(got->at(i)), Bits(want.at(i)))
                  << "c=" << c << " h=" << h << " w=" << w
                  << " grid=" << grid << " i=" << i;
            }
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 3 * 9 * 9 * 4);
}

TEST(GridMaxPoolTest, RejectsBadInput) {
  EXPECT_FALSE(GridMaxPool(Tensor(Shape{4}), 2).ok());
  EXPECT_FALSE(GridMaxPool(Tensor(Shape{1, 4, 4}), 0).ok());
  std::vector<float> out;
  EXPECT_FALSE(AppendGridMaxPool(Tensor(Shape{2, 3}), 2, &out).ok());
  EXPECT_TRUE(out.empty());
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
