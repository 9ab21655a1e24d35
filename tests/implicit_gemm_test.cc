#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "dl/model_zoo.h"
#include "oracle/kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/scratch.h"
#include "vista/estimator.h"

namespace vista {
namespace {

/// Bit-identity across whole tensors: the implicit packer gathers the
/// exact values oracle::Im2Col materializes, in the same panel order, so
/// the outputs must match to the last bit — not just within tolerance.
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
// gather entirely. The square shapes at the end add 5x5 and 7x7 kernels,
// stride 4, a single channel and more groups.
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
  for (const bool relu : {false, true}) {
    auto ex = oracle::Conv2DExplicitGemm(input, w, b, c.stride, c.pad,
                                         c.groups, relu);
    auto im = Conv2DGemmImplicit(input, w, b, c.stride, c.pad, c.groups,
                                 relu);
    ASSERT_TRUE(ex.ok()) << ex.status().ToString();
    ASSERT_TRUE(im.ok()) << im.status().ToString();
    ExpectBitIdentical(*ex, *im);
  }
}

TEST_P(ImplicitConvDifferentialTest, MatchesDirectReference) {
  const ImplicitConvCase c = GetParam();
  Rng rng(c.channels * 7919 + c.w * 13 + c.kernel);
  Tensor input = Tensor::RandomGaussian(Shape{c.channels, c.h, c.w}, &rng);
  Tensor w = Tensor::RandomGaussian(
      Shape{c.filters, c.channels / c.groups, c.kernel, c.kernel}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{c.filters}, &rng);
  auto direct = oracle::Conv2D(input, w, b, c.stride, c.pad, c.groups);
  auto im = Conv2DGemmImplicit(input, w, b, c.stride, c.pad, c.groups,
                               /*relu=*/false);
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
        ImplicitConvCase{3, 35, 29, 7, 3, 2, 1, 1},     // big non-square grid
        ImplicitConvCase{1, 5, 5, 1, 3, 1, 0, 1},
        ImplicitConvCase{3, 8, 8, 4, 3, 1, 1, 1},
        ImplicitConvCase{4, 9, 9, 6, 5, 2, 2, 1},
        ImplicitConvCase{2, 7, 7, 2, 1, 1, 0, 1},
        ImplicitConvCase{4, 8, 8, 8, 3, 1, 1, 2},
        ImplicitConvCase{6, 11, 11, 9, 3, 2, 1, 3},
        ImplicitConvCase{8, 6, 6, 8, 2, 2, 0, 4},
        ImplicitConvCase{3, 16, 16, 12, 7, 4, 3, 1}));

// The fast path must actually be exercised and still agree: a 1x1
// stride-1 pad-0 conv feeds the input tensor to the packed GEMM in place.
TEST(ImplicitConvFastPathTest, OneByOneMatchesExplicitExpansion) {
  Rng rng(42);
  Tensor input = Tensor::RandomGaussian(Shape{32, 14, 14}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{48, 32, 1, 1}, &rng);
  Tensor b = Tensor::RandomGaussian(Shape{48}, &rng);
  auto ex = oracle::Conv2DExplicitGemm(input, w, b, 1, 0, 1, /*relu=*/true);
  auto im = Conv2DGemmImplicit(input, w, b, 1, 0, 1, /*relu=*/true);
  ASSERT_TRUE(ex.ok());
  ASSERT_TRUE(im.ok());
  ExpectBitIdentical(*ex, *im);
}

// Int8: the implicit packer quantizes during the gather. Its raw int32
// accumulators (empty epilogue mode) must be bit-identical to quantizing
// a materialized im2col expansion and running the memory-sourced int8
// kernel on it.
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

  auto cols = oracle::Im2Col(input, c.kernel, c.stride, c.pad, c.groups);
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
// its explicit specification — materialize, quantize, memory-sourced GEMM
// with the same fused dequant epilogue. Same accumulators + same epilogue
// arithmetic => bit-identical fp32 output.
TEST_P(ImplicitConvInt8Test, FullConvMatchesQuantizedExpansion) {
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
                            /*relu=*/true, act_scale);
  auto want = oracle::Conv2DExplicitGemmInt8(input, *qw, b, c.stride, c.pad,
                                             c.groups, /*relu=*/true,
                                             act_scale);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectBitIdentical(*want, *got);
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

// Batch-major inference: a conv over a channel-major group of G images is
// one GEMM whose column q = (image, output pixel). A column sums over K in
// the same KC panels whatever group surrounds it, so each image's slice of
// the grouped output must equal its one-image call byte for byte — fp32
// outputs and int8 raw accumulators alike. G = 17 straddles an NR strip
// and G = 3 or 5 leaves strips ragged.
class GroupedConvTest
    : public ::testing::TestWithParam<std::tuple<ImplicitConvCase, int>> {
 protected:
  /// The channel-major (C, G, H, W) group of `batch`.
  static Tensor GroupOf(const std::vector<Tensor>& batch) {
    const Shape& s = batch[0].shape();
    const int64_t c = s.dim(0), hw = s.dim(1) * s.dim(2);
    const int64_t g = static_cast<int64_t>(batch.size());
    Tensor out(Shape{c, g, s.dim(1), s.dim(2)});
    for (int64_t i = 0; i < g; ++i) {
      for (int64_t ch = 0; ch < c; ++ch) {
        std::memcpy(out.mutable_data() + (ch * g + i) * hw,
                    batch[static_cast<size_t>(i)].data() + ch * hw,
                    static_cast<size_t>(hw) * sizeof(float));
      }
    }
    return out;
  }

  void SetUp() override {
    std::tie(c_, images_) = GetParam();
    Rng rng(c_.channels * 613 + c_.h * 11 + c_.stride * 3 + images_);
    for (int i = 0; i < images_; ++i) {
      batch_.push_back(
          Tensor::RandomGaussian(Shape{c_.channels, c_.h, c_.w}, &rng));
    }
    group_ = GroupOf(batch_);
    w_ = Tensor::RandomGaussian(
        Shape{c_.filters, c_.channels / c_.groups, c_.kernel, c_.kernel},
        &rng);
    b_ = Tensor::RandomGaussian(Shape{c_.filters}, &rng);
    act_scale_ =
        SymmetricScale(MaxAbs(group_.data(), group_.num_elements()));
    h_out_ = (c_.h + 2 * c_.pad - c_.kernel) / c_.stride + 1;
    w_out_ = (c_.w + 2 * c_.pad - c_.kernel) / c_.stride + 1;
  }

  /// Rows of `grouped` (row stride images * spatial) restricted to image
  /// i's columns equal the rows of `one` (row stride spatial).
  void ExpectImageColumns(const float* grouped, const float* one,
                          int64_t rows, int i, const char* what) {
    const int64_t spatial = h_out_ * w_out_;
    for (int64_t r = 0; r < rows; ++r) {
      ASSERT_EQ(0, std::memcmp(grouped + (r * images_ + i) * spatial,
                               one + r * spatial,
                               static_cast<size_t>(spatial) * sizeof(float)))
          << what << ": image " << i << " of " << images_ << ", row " << r;
    }
  }

  ImplicitConvCase c_{};
  int images_ = 0;
  std::vector<Tensor> batch_;
  Tensor group_, w_, b_;
  float act_scale_ = 0.0f;
  int64_t h_out_ = 0, w_out_ = 0;
};

TEST_P(GroupedConvTest, PackedGemmColumnsMatchOneImageCalls) {
  auto qw = QuantizeWeightsPerChannel(w_);
  ASSERT_TRUE(qw.ok());
  const int64_t cpg = c_.channels / c_.groups;
  const int64_t rows = cpg * c_.kernel * c_.kernel;
  const int64_t m = c_.filters / c_.groups;
  const int64_t spatial = h_out_ * w_out_;
  const int64_t cols = images_ * spatial;
  std::vector<float> grouped(static_cast<size_t>(m * cols));
  std::vector<float> grouped_q(grouped.size());
  std::vector<float> one(static_cast<size_t>(m * spatial));
  std::vector<float> one_q(one.size());
  KernelScratch scratch;
  const GemmInt8Epilogue raw;  // Leaves int32 sums bit-cast in C.
  for (int64_t gi = 0; gi < c_.groups; ++gi) {
    ConvPatchView view;
    view.input = group_.data() + gi * cpg * images_ * c_.h * c_.w;
    view.images = images_;
    view.h = c_.h;
    view.w = c_.w;
    view.kernel = c_.kernel;
    view.stride = c_.stride;
    view.pad = c_.pad;
    view.w_out = w_out_;
    const float* a_g = w_.data() + gi * m * rows;
    const int8_t* a_q = qw->data.data() + gi * m * rows;
    GemmPackedConv(m, cols, rows, a_g, rows, view, grouped.data(), cols,
                   GemmEpilogue{}, &scratch);
    GemmPackedConvInt8(m, cols, rows, a_q, rows, view, act_scale_,
                       grouped_q.data(), cols, raw, &scratch);
    for (int i = 0; i < images_; ++i) {
      ConvPatchView single = view;
      single.input = batch_[static_cast<size_t>(i)].data() +
                     gi * cpg * c_.h * c_.w;
      single.images = 1;
      GemmPackedConv(m, spatial, rows, a_g, rows, single, one.data(),
                     spatial, GemmEpilogue{}, &scratch);
      GemmPackedConvInt8(m, spatial, rows, a_q, rows, single, act_scale_,
                         one_q.data(), spatial, raw, &scratch);
      ExpectImageColumns(grouped.data(), one.data(), m, i, "fp32");
      ExpectImageColumns(grouped_q.data(), one_q.data(), m, i, "int8 raw");
    }
  }
}

// The same through the conv entry points: the 1x1 case takes the in-place
// path (the group's channel-major input is the B matrix as it lies), and
// the fused bias/ReLU and int8 dequant epilogues run per column too.
TEST_P(GroupedConvTest, ConvOutputsMatchOneImageConvs) {
  auto qw = QuantizeWeightsPerChannel(w_);
  ASSERT_TRUE(qw.ok());
  for (const bool relu : {false, true}) {
    auto got = Conv2DGemmImplicit(group_, w_, b_, c_.stride, c_.pad,
                                  c_.groups, relu);
    auto got_q = Conv2DGemmInt8(group_, *qw, b_, c_.stride, c_.pad,
                                c_.groups, relu, act_scale_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got_q.ok()) << got_q.status().ToString();
    ASSERT_EQ(got->shape(), (Shape{c_.filters, images_, h_out_, w_out_}));
    for (int i = 0; i < images_; ++i) {
      const Tensor& image = batch_[static_cast<size_t>(i)];
      auto one = Conv2DGemmImplicit(image, w_, b_, c_.stride, c_.pad,
                                    c_.groups, relu);
      auto one_q = Conv2DGemmInt8(image, *qw, b_, c_.stride, c_.pad,
                                  c_.groups, relu, act_scale_);
      ASSERT_TRUE(one.ok());
      ASSERT_TRUE(one_q.ok());
      ExpectImageColumns(got->data(), one->data(), c_.filters, i, "fp32");
      ExpectImageColumns(got_q->data(), one_q->data(), c_.filters, i,
                         "int8");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GroupedConvTest,
    ::testing::Combine(
        ::testing::Values(
            ImplicitConvCase{8, 9, 9, 12, 3, 1, 1, 1},    // plain 3x3
            ImplicitConvCase{8, 11, 7, 12, 3, 2, 1, 1},   // stride 2
            ImplicitConvCase{6, 13, 10, 9, 3, 3, 2, 1},   // stride 3
            ImplicitConvCase{12, 10, 10, 8, 5, 2, 2, 4},  // grouped 5x5
            ImplicitConvCase{16, 8, 8, 24, 1, 1, 0, 1},   // 1x1 in place
            ImplicitConvCase{9, 7, 5, 6, 3, 2, 0, 3},     // grouped, no pad
            ImplicitConvCase{64, 2, 2, 16, 3, 1, 1, 1}),  // conv5-like 2x2
        ::testing::Values(1, 2, 3, 5, 17)));

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
}

// Grouped twin: a narrow layer runs each conv as one GEMM over a group of
// LayerStat::group_images images, so Eq. 16's Temp figure must size the
// grouped B panel. MicroVGG16 conv5 (two 48->48 3x3 convs on 2x2 maps)
// runs in groups of 16; run one group through the model on a fresh
// thread, whose arena starts empty, and compare its high-water.
TEST(ImplicitConvScratchTest, GroupedConvTempBytesMatchesMeasuredPeak) {
  auto arch = dl::MicroVgg16Arch();
  ASSERT_TRUE(arch.ok());
  auto model = dl::CnnModel::Instantiate(*arch, 5);
  ASSERT_TRUE(model.ok());
  auto layer = arch->FindLayer("conv5");
  ASSERT_TRUE(layer.ok());
  const int64_t images = arch->layer(*layer).group_images;
  ASSERT_EQ(images, 16);
  Rng rng(13);
  std::vector<Tensor> inputs;
  for (int64_t i = 0; i < images; ++i) {
    inputs.push_back(Tensor::RandomGaussian(
        arch->layer(*layer - 1).output_shape, &rng));
  }
  int64_t grouped_peak = -1;
  int64_t one_peak = -1;
  std::thread([&] {
    if (model->RunRangeBatch(inputs, *layer, *layer).ok()) {
      grouped_peak = KernelScratch::ThreadLocal().peak_bytes();
    }
  }).join();
  std::thread([&] {
    if (model->RunRange(inputs[0], *layer, *layer).ok()) {
      one_peak = KernelScratch::ThreadLocal().peak_bytes();
    }
  }).join();
  EXPECT_EQ(grouped_peak, ConvTempBytes(*arch, *layer));
  // Grouping is what sized it: one image packs a narrower B panel.
  EXPECT_GT(one_peak, 0);
  EXPECT_LT(one_peak, grouped_peak);
}

// The scratch high-water is observable process-wide: a conv leaves a
// nonzero arena aggregate behind.
TEST(ImplicitConvScratchTest, EngineStatsMirrorGlobalPeak) {
  Rng rng(3);
  Tensor input = Tensor::RandomGaussian(Shape{8, 12, 12}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{8, 8, 3, 3}, &rng);
  Tensor b(Shape{8});
  ASSERT_TRUE(Conv2DGemmImplicit(input, w, b, 1, 1, 1, false).ok());
  EXPECT_GT(KernelScratch::GlobalPeakBytes(), 0);
}

}  // namespace
}  // namespace vista
