#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "common/random.h"
#include "common/thread_pool.h"
#include "oracle/kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/scratch.h"

namespace vista {
namespace {

/// C = A (m x k) * B (k x n) on the packed GEMM, into a fresh tensor.
Tensor PackedMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  Tensor c(Shape{m, n});
  GemmPacked(m, n, k, a.data(), k, b.data(), n, c.mutable_data(), n,
             GemmEpilogue{}, &KernelScratch::ThreadLocal());
  return c;
}

/// FMA contraction and the packed kernel's reordered summation differ from
/// the naive oracle by ~eps per accumulated term, which on catastrophic
/// cancellation (results near zero built from large terms) dwarfs any pure
/// relative bound. Tolerance is therefore mixed: 1e-4 relative plus an
/// absolute term scaled by the accumulation length.
void ExpectGemmClose(const Tensor& ref, const Tensor& got, int64_t k) {
  ASSERT_EQ(ref.shape(), got.shape());
  const float abs_tol =
      1e-5f * static_cast<float>(std::sqrt(static_cast<double>(k))) + 1e-5f;
  for (int64_t i = 0; i < ref.num_elements(); ++i) {
    const float r = ref.at(i);
    const float g = got.at(i);
    ASSERT_LE(std::abs(g - r), abs_tol + 1e-4f * std::abs(r))
        << "at " << i << ": ref=" << r << " got=" << g;
  }
}

TEST(MatMulTest, HandComputed) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = PackedMatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0), 58);
  EXPECT_FLOAT_EQ(c.at(1), 64);
  EXPECT_FLOAT_EQ(c.at(2), 139);
  EXPECT_FLOAT_EQ(c.at(3), 154);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(1);
  Tensor a = Tensor::RandomGaussian(Shape{4, 4}, &rng);
  Tensor eye(Shape{4, 4});
  for (int i = 0; i < 4; ++i) eye.set(i * 4 + i, 1.0f);
  EXPECT_TRUE(PackedMatMul(a, eye).AllClose(a, 1e-5f));
}

TEST(Im2ColTest, UnitKernelIsReshape) {
  Tensor input(Shape{2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  auto cols = oracle::Im2Col(input, 1, 1, 0, 1);
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->shape(), (Shape{1, 2, 4}));
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(cols->at(i), static_cast<float>(i + 1));
  }
}

TEST(Im2ColTest, PaddingZeroFills) {
  Tensor input = Tensor::Full(Shape{1, 2, 2}, 1.0f);
  auto cols = oracle::Im2Col(input, 3, 1, 1, 1);
  ASSERT_TRUE(cols.ok());
  // 3x3 kernel over a padded 2x2: center patch entries present, corners 0.
  EXPECT_EQ(cols->shape(), (Shape{1, 9, 4}));
  float sum = 0;
  for (int64_t i = 0; i < cols->num_elements(); ++i) sum += cols->at(i);
  EXPECT_FLOAT_EQ(sum, 16.0f);  // Each of 4 input pixels appears 4 times.
}

// Reference-vs-optimized harness: the packed kernel must agree with the
// naive oracle across shapes chosen to hit every tiling edge — sub-tile
// matrices, exact multiples of MR/NR/KC/MC, and off-by-one tails of each.
struct GemmShape {
  int64_t m, n, k;
};

class GemmDifferentialTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmDifferentialTest, PackedMatchesReference) {
  const GemmShape s = GetParam();
  Rng rng(s.m * 7919 + s.n * 131 + s.k);
  Tensor a = Tensor::RandomGaussian(Shape{s.m, s.k}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{s.k, s.n}, &rng);
  auto ref = oracle::MatMul(a, b);
  ASSERT_TRUE(ref.ok());
  ExpectGemmClose(*ref, PackedMatMul(a, b), s.k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmDifferentialTest,
    ::testing::Values(GemmShape{1, 1, 1},       // degenerate
                      GemmShape{5, 7, 3},       // below one micro-tile
                      GemmShape{6, 16, 8},      // exactly one micro-tile
                      GemmShape{7, 17, 9},      // micro-tile + 1 tails
                      GemmShape{12, 32, 64},    // tile multiples
                      GemmShape{13, 33, 65},    // tile multiples + 1
                      GemmShape{96, 48, 256},   // exactly MC and KC
                      GemmShape{97, 49, 257},   // MC/KC + 1 tails
                      GemmShape{101, 203, 307}, // primes
                      GemmShape{1, 2048, 300},  // single row, full NC
                      GemmShape{200, 1, 300},   // single column
                      GemmShape{128, 196, 320}));

// Regression for the old kernel's `av == 0.0f` skip: 0 * inf must produce
// NaN, and NaN/Inf in either operand must propagate, exactly as the
// branch-free IEEE arithmetic dictates.
TEST(MatMulTest, NanAndInfPropagation) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();

  // Row [0, 1] x column [inf, 1]: 0 * inf = NaN, so the sum is NaN. The
  // skip-on-zero kernel returned 1 here.
  Tensor a(Shape{1, 2}, {0.0f, 1.0f});
  Tensor b(Shape{2, 1}, {inf, 1.0f});
  EXPECT_TRUE(std::isnan(PackedMatMul(a, b).at(0)));

  // NaN in A poisons its whole output row, and only that row.
  Tensor a2(Shape{2, 2}, {nan, 1.0f, 1.0f, 1.0f});
  Tensor b2(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor c2 = PackedMatMul(a2, b2);
  EXPECT_TRUE(std::isnan(c2.at(0)));
  EXPECT_TRUE(std::isnan(c2.at(1)));
  EXPECT_FLOAT_EQ(c2.at(2), 4.0f);
  EXPECT_FLOAT_EQ(c2.at(3), 6.0f);

  // Inf times a positive row stays inf.
  Tensor a3(Shape{1, 1}, {2.0f});
  Tensor b3(Shape{1, 3}, {inf, -inf, 1.0f});
  const Tensor c3 = PackedMatMul(a3, b3);
  EXPECT_TRUE(std::isinf(c3.at(0)));
  EXPECT_TRUE(std::isinf(c3.at(1)));
  EXPECT_LT(c3.at(1), 0.0f);
  EXPECT_FLOAT_EQ(c3.at(2), 2.0f);
}

// The reference oracle itself must propagate specials too (it exists to
// catch data-dependent shortcuts in the optimized path).
TEST(MatMulTest, ReferenceOracleHasNoZeroSkip) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a(Shape{1, 2}, {0.0f, 1.0f});
  Tensor b(Shape{2, 1}, {inf, 1.0f});
  auto c = oracle::MatMul(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(std::isnan(c->at(0)));
}

// The fused-ReLU epilogue must agree exactly with conv-then-ReLU: the
// arithmetic is identical, only the output pass is fused away.
TEST(Conv2DGemmImplicitTest, FusedReluMatchesSeparateRelu) {
  Rng rng(42);
  Tensor input = Tensor::RandomGaussian(Shape{6, 12, 12}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{9, 2, 3, 3}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{9}, &rng);
  auto plain = Conv2DGemmImplicit(input, w, b, 1, 1, 3, /*relu=*/false);
  auto fused = Conv2DGemmImplicit(input, w, b, 1, 1, 3, /*relu=*/true);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(fused.ok());
  Tensor expected = Relu(*plain);
  ASSERT_EQ(expected.shape(), fused->shape());
  for (int64_t i = 0; i < expected.num_elements(); ++i) {
    ASSERT_EQ(expected.at(i), fused->at(i)) << "at " << i;
  }
}

// Intra-GEMM parallelism partitions work by row blocks but performs the
// same packing and micro-kernel arithmetic per block, so the result must
// be bit-identical to the serial kernel.
TEST(GemmPackedParallelTest, BitIdenticalToSerial) {
  Rng rng(7);
  const int64_t m = 256, n = 200, k = 64;
  Tensor a = Tensor::RandomGaussian(Shape{m, k}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{k, n}, &rng);
  Tensor bias = Tensor::RandomGaussian(Shape{m}, &rng);
  GemmEpilogue epilogue;
  epilogue.bias = bias.data();
  epilogue.relu = true;

  Tensor serial(Shape{m, n});
  GemmPacked(m, n, k, a.data(), k, b.data(), n, serial.mutable_data(), n,
             epilogue, &KernelScratch::ThreadLocal());

  ThreadPool pool(4);
  Tensor parallel(Shape{m, n});
  GemmPackedParallel(m, n, k, a.data(), k, b.data(), n,
                     parallel.mutable_data(), n, epilogue, &pool);
  for (int64_t i = 0; i < serial.num_elements(); ++i) {
    ASSERT_EQ(serial.at(i), parallel.at(i)) << "at " << i;
  }
}

// The zero-allocations-after-warm-up contract: once a convolution shape
// has been seen, repeating it (or running anything smaller) acquires every
// scratch buffer from the arena without touching the heap.
TEST(KernelScratchTest, NoAllocationsAfterWarmup) {
  Rng rng(3);
  Tensor input = Tensor::RandomGaussian(Shape{8, 14, 14}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{16, 8, 3, 3}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{16}, &rng);

  // Warm-up: grows the arena to this shape's high-water mark.
  ASSERT_TRUE(Conv2DGemmImplicit(input, w, b, 1, 1, 1, false).ok());

  KernelScratch& scratch = KernelScratch::ThreadLocal();
  const int64_t allocs_after_warmup = scratch.allocations();
  const int64_t reuses_before = scratch.reuses();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Conv2DGemmImplicit(input, w, b, 1, 1, 1, false).ok());
  }
  EXPECT_EQ(scratch.allocations(), allocs_after_warmup)
      << "warmed-up convolutions must not allocate scratch";
  EXPECT_GT(scratch.reuses(), reuses_before);
}

TEST(KernelScratchTest, GrowsGeometricallyAndAligns) {
  KernelScratch scratch;
  float* p1 = scratch.Acquire(KernelScratch::Slot::kPackA, 100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p1) % 64, 0u);
  EXPECT_EQ(scratch.allocations(), 1);
  // Same slot, smaller request: reused, not reallocated.
  scratch.Acquire(KernelScratch::Slot::kPackA, 50);
  EXPECT_EQ(scratch.allocations(), 1);
  EXPECT_EQ(scratch.reuses(), 1);
  // Larger request forces growth.
  float* p2 = scratch.Acquire(KernelScratch::Slot::kPackA, 5000);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p2) % 64, 0u);
  EXPECT_EQ(scratch.allocations(), 2);
}

// The packed FC (one GEMM over a group's columns, fp32 accumulation)
// against the double-accumulating FullyConnected loop it replaced, on odd
// shapes: in_dim 1 and 257 (one K panel and a 1-row tail panel), out_dim
// off the 6-row micro-tile, and batches of 1, 17 and 64 columns. Each
// column must also be bit-identical to the same vector run alone.
class FullyConnectedGemmTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FullyConnectedGemmTest, MatchesScalarOracleAndOneVectorRuns) {
  const auto [in_dim, out_dim, batch] = GetParam();
  Rng rng(in_dim * 7 + out_dim * 3 + batch);
  Tensor w = Tensor::RandomGaussian(Shape{out_dim, in_dim}, &rng);
  Tensor bias = Tensor::RandomGaussian(Shape{out_dim}, &rng);
  Tensor x = Tensor::RandomGaussian(Shape{in_dim, batch}, &rng);
  for (const bool relu : {false, true}) {
    auto got = FullyConnectedGemm(x, w, bias, relu);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->shape(), (Shape{out_dim, batch}));
    for (int j = 0; j < batch; ++j) {
      Tensor col(Shape{in_dim});
      for (int i = 0; i < in_dim; ++i) col.set(i, x.at(i * batch + j));
      auto ref = oracle::FullyConnected(col, w, bias);
      ASSERT_TRUE(ref.ok());
      Tensor want = relu ? Relu(*ref) : *ref;
      auto alone = FullyConnectedGemm(col, w, bias, relu);
      ASSERT_TRUE(alone.ok());
      Tensor column(Shape{out_dim});
      for (int r = 0; r < out_dim; ++r) {
        column.set(r, got->at(r * batch + j));
        ASSERT_EQ(got->at(r * batch + j), alone->at(r))
            << "column " << j << " row " << r;
      }
      ExpectGemmClose(want, column, in_dim);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, FullyConnectedGemmTest,
    ::testing::Combine(::testing::Values(1, 257),
                       ::testing::Values(5, 13, 97),
                       ::testing::Values(1, 17, 64)));

TEST(FullyConnectedGemmTest, RejectsBadShapes) {
  Tensor w(Shape{4, 8});
  Tensor b(Shape{4});
  EXPECT_FALSE(FullyConnectedGemm(Tensor(Shape{7, 2}), w, b, false).ok());
  EXPECT_FALSE(FullyConnectedGemm(Tensor(Shape{8, 2, 1}), w, b, false).ok());
  EXPECT_FALSE(
      FullyConnectedGemm(Tensor(Shape{8}), w, Tensor(Shape{3}), false).ok());
}

TEST(Conv2DGemmImplicitTest, RejectsBadConfigs) {
  Tensor input(Shape{3, 8, 8});
  Tensor w(Shape{4, 3, 3, 3});
  Tensor b(Shape{4});
  // Non-square kernel.
  EXPECT_FALSE(Conv2DGemmImplicit(input, Tensor(Shape{4, 3, 3, 2}), b, 1, 1,
                                  1, false)
                   .ok());
  // Groups not dividing channels.
  EXPECT_FALSE(Conv2DGemmImplicit(input, w, b, 1, 1, 2, false).ok());
  // Bias mismatch.
  EXPECT_FALSE(
      Conv2DGemmImplicit(input, w, Tensor(Shape{5}), 1, 1, 1, false).ok());
}

}  // namespace
}  // namespace vista
