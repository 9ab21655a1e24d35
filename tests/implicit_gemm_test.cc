#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "dl/model_zoo.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/scratch.h"
#include "vista/estimator.h"

namespace vista {
namespace {

/// Bit-identity across whole tensors: the implicit packer gathers the
/// exact values the explicit path materializes, in the same panel order,
/// so the outputs must match to the last bit — not just within tolerance.
void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.num_elements()) *
                               sizeof(float)));
}

// Odd shapes chosen to exercise every gather branch: stride 2 and 3,
// non-square inputs whose bottom/right effective padding differs from the
// top/left (h or w not congruent with the window), grouped convolution,
// even kernels, and the 1x1/stride-1/pad-0 fast path that skips the
// gather entirely.
struct ImplicitConvCase {
  int channels, h, w, filters, kernel, stride, pad, groups;
};

class ImplicitConvDifferentialTest
    : public ::testing::TestWithParam<ImplicitConvCase> {};

TEST_P(ImplicitConvDifferentialTest, BitIdenticalToExplicitIm2Col) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 131 + c.h * 31 + c.kernel * 17 + c.stride);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  ThreadPool pool(3);
  for (const bool relu : {false, true}) {
    auto ex = Conv2DGemmEx(input, w, b, c.stride, c.pad, c.groups, relu,
                           nullptr);
    auto im = Conv2DGemmImplicit(input, w, b, c.stride, c.pad, c.groups,
                                 relu, nullptr);
    ASSERT_TRUE(ex.ok()) << ex.status().ToString();
    ASSERT_TRUE(im.ok()) << im.status().ToString();
    ExpectBitIdentical(*ex, *im);
    // The parallel path packs the same B panels; only the M-tile schedule
    // differs, which touches disjoint output rows.
    auto im_pool = Conv2DGemmImplicit(input, w, b, c.stride, c.pad,
                                      c.groups, relu, &pool);
    ASSERT_TRUE(im_pool.ok());
    ExpectBitIdentical(*ex, *im_pool);
  }
}

TEST_P(ImplicitConvDifferentialTest, MatchesDirectReference) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 7919 + c.w * 13 + c.kernel);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  auto direct = Conv2D(input, w, b, c.stride, c.pad, c.groups);
  auto im = Conv2DGemmImplicit(input, w, b, c.stride, c.pad, c.groups,
                               /*relu=*/false, nullptr);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(im.ok());
  EXPECT_EQ(direct->shape(), im->shape());
  EXPECT_TRUE(direct->AllClose(*im, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, ImplicitConvDifferentialTest,
    ::testing::Values(
        ImplicitConvCase{8, 9, 9, 12, 3, 1, 1, 1},    // plain 3x3
        ImplicitConvCase{8, 11, 7, 12, 3, 2, 1, 1},   // stride 2, non-square
        ImplicitConvCase{6, 13, 10, 9, 3, 3, 2, 1},   // stride 3
        ImplicitConvCase{12, 10, 10, 8, 5, 2, 2, 4},  // grouped 5x5
        ImplicitConvCase{16, 8, 8, 24, 1, 1, 0, 1},   // 1x1 fast path
        ImplicitConvCase{9, 7, 5, 6, 3, 2, 0, 3},     // grouped, no pad
        ImplicitConvCase{4, 6, 6, 6, 2, 2, 1, 2},       // even kernel
        ImplicitConvCase{3, 35, 29, 7, 3, 2, 1, 1}));   // big non-square grid

// The fast path must actually be exercised and still agree: a 1x1
// stride-1 pad-0 conv feeds the input tensor to the packed GEMM in place.
TEST(ImplicitConvFastPathTest, OneByOneMatchesExplicitAndDirect) {
  Rng rng(42);
  Tensor input = Tensor::RandomGaussian(Shape{32, 14, 14}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{48, 32, 1, 1}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{48}, &rng);
  auto ex = Conv2DGemmEx(input, w, b, 1, 0, 1, /*relu=*/true, nullptr);
  auto im = Conv2DGemmImplicit(input, w, b, 1, 0, 1, /*relu=*/true, nullptr);
  ASSERT_TRUE(ex.ok());
  ASSERT_TRUE(im.ok());
  ExpectBitIdentical(*ex, *im);
}

// Int8: the implicit packer quantizes during the gather. Its raw int32
// accumulators (empty epilogue mode) must be bit-identical to quantizing
// a materialized im2col expansion and running the memory-sourced int8
// kernel on it — the legacy fp32-im2col-then-quantize detour.
class ImplicitConvInt8Test
    : public ::testing::TestWithParam<ImplicitConvCase> {};

TEST_P(ImplicitConvInt8Test, AccumulatorsMatchQuantizedExpansion) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 977 + c.h * 5 + c.kernel);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const float act_scale =
      SymmetricScale(MaxAbs(input.data(), input.num_elements()));

  auto cols = Im2Col(input, c.kernel, c.stride, c.pad, c.groups);
  ASSERT_TRUE(cols.ok());
  const int64_t rows = cols->shape().dim(1);
  const int64_t spatial = cols->shape().dim(2);
  const int64_t m = c.filters / c.groups;
  const int64_t h_out = (c.h + 2 * c.pad - c.kernel) / c.stride + 1;
  const int64_t w_out = (c.w + 2 * c.pad - c.kernel) / c.stride + 1;
  ASSERT_EQ(spatial, h_out * w_out);

  std::vector<int8_t> cols_q(static_cast<size_t>(rows * spatial));
  std::vector<float> ref_c(static_cast<size_t>(m * spatial));
  std::vector<float> imp_c(ref_c.size());
  KernelScratch scratch;
  for (int64_t gi = 0; gi < c.groups; ++gi) {
    const float* group_cols = cols->data() + gi * rows * spatial;
    QuantizeSymmetric(group_cols, rows * spatial, act_scale, cols_q.data());
    const int8_t* a_g = qw->data.data() + gi * m * rows;
    // Empty epilogue: both kernels leave raw int32 sums bit-cast in C.
    GemmInt8Epilogue raw;
    GemmPackedInt8(m, spatial, rows, a_g, rows, cols_q.data(), spatial,
                   ref_c.data(), spatial, raw, &scratch);
    ConvPatchView view;
    view.input = input.data() + gi * (c.channels / c.groups) * c.h * c.w;
    view.h = c.h;
    view.w = c.w;
    view.kernel = c.kernel;
    view.stride = c.stride;
    view.pad = c.pad;
    view.w_out = w_out;
    GemmPackedConvInt8(m, spatial, rows, a_g, rows, view, act_scale,
                       imp_c.data(), spatial, raw, &scratch);
    ASSERT_EQ(0, std::memcmp(ref_c.data(), imp_c.data(),
                             ref_c.size() * sizeof(float)))
        << "group " << gi;
  }
}

// End to end with per-channel scales: Conv2DGemmInt8 (implicit) against
// the legacy detour — materialize, quantize, memory-sourced GEMM with the
// same fused dequant epilogue. Same accumulators + same epilogue
// arithmetic => bit-identical fp32 output.
TEST_P(ImplicitConvInt8Test, FullConvMatchesLegacyDetour) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 271 + c.w * 7 + c.stride);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  auto qw = QuantizeWeightsPerChannel(w);
  ASSERT_TRUE(qw.ok());
  const float act_scale =
      SymmetricScale(MaxAbs(input.data(), input.num_elements()));

  auto got = Conv2DGemmInt8(input, *qw, b, c.stride, c.pad, c.groups,
                            /*relu=*/true, act_scale, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  auto cols = Im2Col(input, c.kernel, c.stride, c.pad, c.groups);
  ASSERT_TRUE(cols.ok());
  const int64_t rows = cols->shape().dim(1);
  const int64_t spatial = cols->shape().dim(2);
  const int64_t m = c.filters / c.groups;
  std::vector<float> scales(static_cast<size_t>(c.filters));
  for (int i = 0; i < c.filters; ++i) {
    scales[static_cast<size_t>(i)] =
        qw->scales[static_cast<size_t>(i)] * act_scale;
  }
  Tensor want(got->shape());
  std::vector<int8_t> cols_q(static_cast<size_t>(rows * spatial));
  KernelScratch scratch;
  for (int64_t gi = 0; gi < c.groups; ++gi) {
    QuantizeSymmetric(cols->data() + gi * rows * spatial, rows * spatial,
                      act_scale, cols_q.data());
    GemmInt8Epilogue epilogue;
    epilogue.scale = scales.data() + gi * m;
    epilogue.bias = b.data() + gi * m;
    epilogue.relu = true;
    GemmPackedInt8(m, spatial, rows, qw->data.data() + gi * m * rows, rows,
                   cols_q.data(), spatial,
                   want.mutable_data() + gi * m * spatial, spatial, epilogue,
                   &scratch);
  }
  ExpectBitIdentical(want, *got);
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, ImplicitConvInt8Test,
    ::testing::Values(
        ImplicitConvCase{8, 9, 9, 12, 3, 1, 1, 1},
        ImplicitConvCase{8, 11, 7, 12, 3, 2, 1, 1},
        ImplicitConvCase{6, 13, 10, 9, 3, 3, 2, 1},
        ImplicitConvCase{12, 10, 10, 8, 5, 2, 2, 4},
        ImplicitConvCase{16, 8, 8, 24, 1, 1, 0, 1},
        ImplicitConvCase{9, 7, 5, 6, 3, 2, 0, 3}));

// The headline footprint claim: on a VGG-style 3x3 conv the explicit
// path's arena (im2col expansion + packed panels) is at least 4x the
// implicit path's (panels only). Measured on fresh arenas, not estimated.
TEST(ImplicitConvScratchTest, FootprintDropsAtLeast4x) {
  const int64_t channels = 64, hw = 56, filters = 64;
  const int kernel = 3, stride = 1, pad = 1;
  Rng rng(9);
  Tensor input = Tensor::RandomGaussian(Shape{channels, hw, hw}, &rng);
  Tensor w =
      Tensor::RandomGaussian(Shape{filters, channels, kernel, kernel}, &rng);
  const int64_t rows = channels * kernel * kernel;
  const int64_t spatial = hw * hw;  // stride 1, pad 1 preserves the grid.
  std::vector<float> c(static_cast<size_t>(filters * spatial));

  KernelScratch implicit_arena;
  ConvPatchView view;
  view.input = input.data();
  view.h = hw;
  view.w = hw;
  view.kernel = kernel;
  view.stride = stride;
  view.pad = pad;
  view.w_out = hw;
  GemmPackedConv(filters, spatial, rows, w.data(), rows, view, c.data(),
                 spatial, GemmEpilogue{}, &implicit_arena);

  // Emulate the explicit path's arena traffic: the materialized expansion
  // lives in Slot::kIm2Col of the same arena the packed GEMM then uses.
  auto cols = Im2Col(input, kernel, stride, pad, 1);
  ASSERT_TRUE(cols.ok());
  KernelScratch explicit_arena;
  float* buf = explicit_arena.Acquire(KernelScratch::Slot::kIm2Col,
                                      static_cast<size_t>(rows * spatial));
  std::memcpy(buf, cols->data(),
              static_cast<size_t>(rows * spatial) * sizeof(float));
  GemmPacked(filters, spatial, rows, w.data(), rows, buf, spatial, c.data(),
             spatial, GemmEpilogue{}, &explicit_arena);

  EXPECT_GT(implicit_arena.peak_bytes(), 0);
  EXPECT_GE(explicit_arena.peak_bytes(), 4 * implicit_arena.peak_bytes())
      << "explicit " << explicit_arena.peak_bytes() << " implicit "
      << implicit_arena.peak_bytes();
}

// The estimator's Eq. 16 Temp figure must track what the kernel actually
// acquires: ConvTempBytes mirrors the drivers' literal Acquire sizes, so
// on a fresh arena the measured high-water equals the prediction exactly.
TEST(ImplicitConvScratchTest, ConvTempBytesMatchesMeasuredPeak) {
  auto arch = dl::MicroAlexNetArch();
  ASSERT_TRUE(arch.ok());
  const Shape in_shape = arch->input_shape();
  const dl::OpSpec* conv = nullptr;
  for (const dl::OpSpec& op : arch->layer_spec(0).ops) {
    if (op.kind == dl::OpKind::kConv) {
      conv = &op;
      break;
    }
  }
  ASSERT_NE(conv, nullptr);
  const int groups = conv->groups > 0 ? conv->groups : 1;
  const int64_t c_in = in_shape.dim(0), h = in_shape.dim(1),
                w = in_shape.dim(2);
  const int64_t rows = (c_in / groups) * conv->kernel * conv->kernel;
  const int64_t h_out =
      (h + 2 * conv->pad - conv->kernel) / conv->stride + 1;
  const int64_t w_out =
      (w + 2 * conv->pad - conv->kernel) / conv->stride + 1;
  Rng rng(11);
  Tensor input = Tensor::RandomGaussian(in_shape, &rng);
  Tensor weights = Tensor::RandomGaussian(
      Shape{conv->out_channels, c_in / groups, conv->kernel, conv->kernel},
      &rng);
  std::vector<float> out(
      static_cast<size_t>(conv->out_channels * h_out * w_out));
  KernelScratch arena;
  for (int gi = 0; gi < groups; ++gi) {
    ConvPatchView view;
    view.input = input.data() + gi * (c_in / groups) * h * w;
    view.h = h;
    view.w = w;
    view.kernel = conv->kernel;
    view.stride = conv->stride;
    view.pad = conv->pad;
    view.w_out = w_out;
    const int64_t m = conv->out_channels / groups;
    GemmPackedConv(m, h_out * w_out, rows, weights.data() + gi * m * rows,
                   rows, view, out.data() + gi * m * h_out * w_out,
                   h_out * w_out, GemmEpilogue{}, &arena);
  }
  EXPECT_EQ(arena.peak_bytes(), ConvTempBytes(*arch, 0));
  // And the legacy figure dominates it by the materialized expansion.
  EXPECT_GT(ConvIm2ColTempBytes(*arch, 0), ConvTempBytes(*arch, 0));
}

// The scratch high-water is observable process-wide: a conv leaves a
// nonzero arena aggregate behind.
TEST(ImplicitConvScratchTest, EngineStatsMirrorGlobalPeak) {
  Rng rng(3);
  Tensor input = Tensor::RandomGaussian(Shape{8, 12, 12}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{8, 8, 3, 3}, &rng);
  Tensor b(Shape{8});
  ASSERT_TRUE(Conv2DGemm(input, w, b, 1, 1).ok());
  EXPECT_GT(KernelScratch::GlobalPeakBytes(), 0);
}

}  // namespace
}  // namespace vista
