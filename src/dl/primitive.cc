#include "dl/primitive.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace vista::dl {
namespace {

/// Builds a bank of Gabor filters: `filters` orientations x frequencies over
/// `channels` input channels, each kernel x kernel. The documented stand-in
/// for the oriented edge/texture detectors of pretrained first conv layers.
Tensor GaborFilterBank(int64_t filters, int64_t channels, int kernel,
                       Rng* rng) {
  Tensor w(Shape{filters, channels, kernel, kernel});
  float* data = w.mutable_data();
  const double pi = 3.14159265358979323846;
  const int orientations = 8;
  for (int64_t f = 0; f < filters; ++f) {
    const double theta = pi * static_cast<double>(f % orientations) /
                         static_cast<double>(orientations);
    // Wavelengths cycle through a small set of scales per orientation.
    const double lambda =
        2.0 + 2.0 * static_cast<double>((f / orientations) % 3);
    const double sigma = 0.5 * lambda;
    const double gamma = 0.75;
    const double phase = rng->NextDouble(0.0, pi);
    const double center = (kernel - 1) / 2.0;
    for (int64_t c = 0; c < channels; ++c) {
      // Small per-channel weighting so color carries some signal too.
      const double cw = 0.5 + rng->NextDouble();
      for (int y = 0; y < kernel; ++y) {
        for (int x = 0; x < kernel; ++x) {
          const double xr = (x - center) * std::cos(theta) +
                            (y - center) * std::sin(theta);
          const double yr = -(x - center) * std::sin(theta) +
                            (y - center) * std::cos(theta);
          const double envelope = std::exp(
              -(xr * xr + gamma * gamma * yr * yr) / (2.0 * sigma * sigma));
          const double carrier = std::cos(2.0 * pi * xr / lambda + phase);
          data[((f * channels + c) * kernel + y) * kernel + x] =
              static_cast<float>(cw * envelope * carrier);
        }
      }
    }
  }
  return w;
}

Tensor HeInit(Shape shape, int64_t fan_in, Rng* rng) {
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(std::max<int64_t>(1, fan_in)));
  return Tensor::RandomGaussian(std::move(shape), rng, stddev);
}

/// An FC's input group as the (D, N) matrix whose column i is image i's
/// flattened CHW values. A (C, N, H, W) map group needs its (N, H*W)
/// blocks transposed per channel unless N or H*W is 1.
Tensor FlattenGroup(const Tensor& group) {
  const Shape& s = group.shape();
  if (s.rank() != 4) return group;
  const int64_t c = s.dim(0);
  const int64_t n = s.dim(1);
  const int64_t hw = s.dim(2) * s.dim(3);
  if (n == 1 || hw == 1) return group.Reshape(Shape{c * hw, n});
  Tensor out(Shape{c * hw, n});
  const float* in = group.data();
  float* o = out.mutable_data();
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t i = 0; i < n; ++i) {
      const float* src = in + (ch * n + i) * hw;
      for (int64_t p = 0; p < hw; ++p) o[(ch * hw + p) * n + i] = src[p];
    }
  }
  return out;
}

}  // namespace

Shape GroupShape(const Shape& image, int64_t images) {
  std::vector<int64_t> dims = image.dims();
  dims.insert(dims.begin() + std::min(1, image.rank()), images);
  return Shape(std::move(dims));
}

void PutImage(const Tensor& image, int64_t i, Tensor* group) {
  const int64_t c = group->shape().dim(0);
  const int64_t n = group->shape().dim(1);
  const int64_t inner = group->num_elements() / (c * n);
  for (int64_t ch = 0; ch < c; ++ch) {
    std::memcpy(group->mutable_data() + (ch * n + i) * inner,
                image.data() + ch * inner, sizeof(float) * inner);
  }
}

Tensor TakeImage(const Tensor& group, int64_t i, const Shape& image) {
  const int64_t c = group.shape().dim(0);
  const int64_t n = group.shape().dim(1);
  if (n == 1) return group.Reshape(image);
  const int64_t inner = group.num_elements() / (c * n);
  Tensor out(image);
  for (int64_t ch = 0; ch < c; ++ch) {
    std::memcpy(out.mutable_data() + ch * inner,
                group.data() + (ch * n + i) * inner, sizeof(float) * inner);
  }
  return out;
}

const char* PrecisionName(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

Result<PrimitiveInstance> InstantiatePrimitive(const OpSpec& op,
                                               const Shape& shape, Rng* rng,
                                               WeightInit init,
                                               bool* first_conv) {
  PrimitiveInstance prim;
  prim.spec = op;
  prim.input_shape = shape;
  const int64_t c_in = shape.rank() == 3 ? shape.dim(0) : 0;
  switch (op.kind) {
    case OpKind::kConv: {
      const int64_t c_per_group = c_in / std::max(1, op.groups);
      const int64_t fan_in = c_per_group * op.kernel * op.kernel;
      if (*first_conv && init == WeightInit::kGaborFirstConv) {
        prim.weights.push_back(
            GaborFilterBank(op.out_channels, c_per_group, op.kernel, rng));
      } else {
        prim.weights.push_back(HeInit(
            Shape{op.out_channels, c_per_group, op.kernel, op.kernel},
            fan_in, rng));
      }
      prim.weights.push_back(Tensor::Zeros(Shape{op.out_channels}));
      *first_conv = false;
      break;
    }
    case OpKind::kFc: {
      const int64_t in_dim = shape.num_elements();
      prim.weights.push_back(
          HeInit(Shape{op.out_channels, in_dim}, in_dim, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{op.out_channels}));
      break;
    }
    case OpKind::kBottleneck: {
      const int64_t mid = op.mid_channels;
      const int64_t out = op.out_channels;
      // conv1 1x1 (c_in -> mid) + bn.
      prim.weights.push_back(HeInit(Shape{mid, c_in, 1, 1}, c_in, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      prim.weights.push_back(Tensor::Full(Shape{mid}, 1.0f));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      // conv2 3x3 (mid -> mid) + bn.
      prim.weights.push_back(HeInit(Shape{mid, mid, 3, 3}, mid * 9, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      prim.weights.push_back(Tensor::Full(Shape{mid}, 1.0f));
      prim.weights.push_back(Tensor::Zeros(Shape{mid}));
      // conv3 1x1 (mid -> out) + bn. The final BN scale starts small so
      // residual variance does not compound across blocks (the usual
      // residual-branch down-scaling at initialization).
      prim.weights.push_back(HeInit(Shape{out, mid, 1, 1}, mid, rng));
      prim.weights.push_back(Tensor::Zeros(Shape{out}));
      prim.weights.push_back(Tensor::Full(Shape{out}, 0.2f));
      prim.weights.push_back(Tensor::Zeros(Shape{out}));
      if (op.project) {
        prim.weights.push_back(HeInit(Shape{out, c_in, 1, 1}, c_in, rng));
        prim.weights.push_back(Tensor::Zeros(Shape{out}));
        prim.weights.push_back(Tensor::Full(Shape{out}, 1.0f));
        prim.weights.push_back(Tensor::Zeros(Shape{out}));
      }
      *first_conv = false;
      break;
    }
    default:
      break;  // No weights.
  }
  return prim;
}

Result<Tensor> ApplyPrimitive(const PrimitiveInstance& prim,
                              const Tensor& input, Precision precision) {
  const OpSpec& op = prim.spec;
  const bool int8 = precision == Precision::kInt8 &&
                    (op.kind == OpKind::kConv || op.kind == OpKind::kFc);
  if (int8 && !prim.quant.ready) {
    return Status::FailedPrecondition(
        "int8 inference requested but primitive '" +
        std::string(OpKindToString(op.kind)) +
        "' has no calibration (run CnnModel::CalibrateInt8 first)");
  }
  switch (op.kind) {
    case OpKind::kConv:
      // ReLU rides the GEMM epilogue: no separate output pass.
      if (int8) {
        return Conv2DGemmInt8(input, prim.quant.weights, prim.weights[1],
                              op.stride, op.pad, std::max(1, op.groups),
                              op.relu, prim.quant.act_scale);
      }
      return Conv2DGemmImplicit(input, prim.weights[0], prim.weights[1],
                                op.stride, op.pad, std::max(1, op.groups),
                                op.relu);
    case OpKind::kMaxPool:
      return MaxPool2D(input, op.window, op.stride, op.pad);
    case OpKind::kAvgPool:
      return AvgPool2D(input, op.window, op.stride, op.pad);
    case OpKind::kGlobalAvgPool:
      return GlobalAvgPool(input);
    case OpKind::kLrn:
      return LocalResponseNorm(input);
    case OpKind::kFc: {
      // One GEMM over the group's columns; ReLU is fused either way.
      const Tensor x = FlattenGroup(input);
      if (int8) {
        return FullyConnectedInt8(x, prim.quant.weights, prim.weights[1],
                                  op.relu, prim.quant.act_scale);
      }
      return FullyConnectedGemm(x, prim.weights[0], prim.weights[1],
                                op.relu);
    }
    case OpKind::kFlatten:
      return FlattenGroup(input);
    case OpKind::kSoftmax:
      return Softmax(input);
    case OpKind::kBottleneck: {
      // Batch norm follows each conv, so ReLU cannot be fused here; BN,
      // ReLU and the residual add write over the conv outputs they are
      // handed instead of copying the group's buffer.
      const auto& w = prim.weights;
      VISTA_ASSIGN_OR_RETURN(
          Tensor h1, Conv2DGemmImplicit(input, w[0], w[1], op.stride, 0, 1,
                                        /*relu=*/false));
      VISTA_ASSIGN_OR_RETURN(h1,
                             BatchNormInference(std::move(h1), w[2], w[3]));
      VISTA_ASSIGN_OR_RETURN(
          Tensor h2, Conv2DGemmImplicit(Relu(std::move(h1)), w[4], w[5], 1,
                                        1, 1, /*relu=*/false));
      VISTA_ASSIGN_OR_RETURN(h2,
                             BatchNormInference(std::move(h2), w[6], w[7]));
      VISTA_ASSIGN_OR_RETURN(
          Tensor h3, Conv2DGemmImplicit(Relu(std::move(h2)), w[8], w[9], 1,
                                        0, 1, /*relu=*/false));
      VISTA_ASSIGN_OR_RETURN(
          h3, BatchNormInference(std::move(h3), w[10], w[11]));
      Tensor skip = input;
      if (op.project) {
        VISTA_ASSIGN_OR_RETURN(
            skip, Conv2DGemmImplicit(input, w[12], w[13], op.stride, 0, 1,
                                     /*relu=*/false));
        VISTA_ASSIGN_OR_RETURN(
            skip, BatchNormInference(std::move(skip), w[14], w[15]));
      }
      VISTA_ASSIGN_OR_RETURN(Tensor sum, Add(std::move(h3), skip));
      return Relu(std::move(sum));
    }
  }
  return Status::Internal("unhandled OpKind in ApplyPrimitive");
}

}  // namespace vista::dl
