#include "tensor/gemm.h"

#include <string>

#include "tensor/gemm_kernel.h"
#include "tensor/scratch.h"

namespace vista {
namespace {

/// InvalidArgument("<name>: <what>"), built only on failure so that the
/// shape checks allocate nothing when the shapes are valid.
Status ShapeError(const char* name, const std::string& what) {
  return Status::InvalidArgument(std::string(name) + ": " + what);
}

/// Shared shape validation + derived geometry for the fp32 and int8 conv
/// kernels. `name` prefixes error messages so each entry point keeps its
/// own diagnostics. The input is one CHW image or a channel-major
/// (C, N, H, W) group of N images.
struct ConvGeom {
  int64_t k_total = 0;
  int kernel = 1;
  int64_t c = 0;
  int64_t images = 1;
  int64_t h = 0;
  int64_t w = 0;
  int64_t h_out = 0;
  int64_t w_out = 0;
  int64_t c_per_group = 0;
  int64_t rows = 0;     // Patch rows per group: c/groups * kernel^2.
  int64_t spatial = 0;  // h_out * w_out.
  int64_t k_per_group = 0;
  Shape out_shape;      // (K, H_out, W_out), or (K, N, H_out, W_out).
};

Status ComputeConvGeom(const char* name, const Shape& in_shape,
                       const Shape& ws, const Shape& bias_shape, int stride,
                       int pad, int groups, ConvGeom* g) {
  if (ws.rank() != 4 || bias_shape.rank() != 1) {
    return ShapeError(name, "bad weights/bias rank");
  }
  g->k_total = ws.dim(0);
  g->kernel = static_cast<int>(ws.dim(2));
  if (ws.dim(2) != ws.dim(3)) {
    return ShapeError(name, "non-square kernel");
  }
  if (groups < 1 || g->k_total % groups != 0 ||
      bias_shape.dim(0) != g->k_total) {
    return ShapeError(name, "filters/groups mismatch");
  }
  const int rank = in_shape.rank();
  g->c = rank == 3 || rank == 4 ? in_shape.dim(0) : 0;
  if ((rank != 3 && rank != 4) || g->c % groups != 0 ||
      ws.dim(1) != g->c / groups) {
    return ShapeError(name,
                      "input channels incompatible with weights/groups");
  }
  if (g->kernel < 1 || stride < 1 || pad < 0) {
    return ShapeError(name, "bad kernel/stride/pad");
  }
  g->images = rank == 4 ? in_shape.dim(1) : 1;
  g->h = in_shape.dim(rank - 2);
  g->w = in_shape.dim(rank - 1);
  if (g->kernel > g->h + 2 * pad || g->kernel > g->w + 2 * pad) {
    return ShapeError(name, "kernel larger than padded input");
  }
  g->h_out = (g->h + 2 * pad - g->kernel) / stride + 1;
  g->w_out = (g->w + 2 * pad - g->kernel) / stride + 1;
  if (g->h_out <= 0 || g->w_out <= 0 || g->images < 1) {
    return ShapeError(name, "empty output");
  }
  g->c_per_group = g->c / groups;
  g->rows = g->c_per_group * g->kernel * g->kernel;
  g->spatial = g->h_out * g->w_out;
  g->k_per_group = g->k_total / groups;
  g->out_shape = rank == 4 ? Shape{g->k_total, g->images, g->h_out, g->w_out}
                           : Shape{g->k_total, g->h_out, g->w_out};
  return Status::OK();
}

/// Conv group `gi`'s implicit patch matrix over every image of `input`.
ConvPatchView GroupPatchView(const ConvGeom& g, const float* input,
                             int64_t gi, int stride, int pad) {
  ConvPatchView view;
  view.input = input + gi * g.c_per_group * g.images * g.h * g.w;
  view.images = g.images;
  view.h = g.h;
  view.w = g.w;
  view.kernel = g.kernel;
  view.stride = stride;
  view.pad = pad;
  view.w_out = g.w_out;
  return view;
}

/// Shape checks shared by the fp32 and int8 fully connected layers; sets
/// `n` to the number of input vectors (columns).
Status CheckFcShapes(const char* name, const Shape& in, const Shape& ws,
                     const Shape& bias, int64_t* n) {
  if (ws.rank() != 2 || bias.rank() != 1) {
    return ShapeError(name, "bad weights/bias rank");
  }
  if ((in.rank() != 1 && in.rank() != 2) || in.dim(0) != ws.dim(1)) {
    return ShapeError(name, "input shape " + in.ToString() +
                                " does not hold vectors of " +
                                std::to_string(ws.dim(1)) + " elements");
  }
  if (bias.dim(0) != ws.dim(0)) {
    return ShapeError(name, "bias length mismatch");
  }
  *n = in.rank() == 2 ? in.dim(1) : 1;
  return Status::OK();
}

}  // namespace

Result<Tensor> Conv2DGemmImplicit(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias, int stride, int pad,
                                  int groups, bool relu) {
  ConvGeom g;
  VISTA_RETURN_IF_ERROR(ComputeConvGeom("Conv2DGemmImplicit", input.shape(),
                                        weights.shape(), bias.shape(), stride,
                                        pad, groups, &g));
  KernelScratch& scratch = KernelScratch::ThreadLocal();
  Tensor out(g.out_shape);
  float* o = out.mutable_data();
  const float* wt = weights.data();
  const float* b = bias.data();
  // One GEMM per conv group over every image: columns are (image, pixel).
  const int64_t cols = g.images * g.spatial;
  // 1x1 / stride-1 / pad-0: the patch matrix IS the group's input slice
  // (rows = c_per_group, columns = the images' h*w pixels, contiguous in
  // the channel-major layout), so the packed GEMM can read it in place
  // with ldb = cols — no gather at all.
  const bool unit = g.kernel == 1 && stride == 1 && pad == 0;
  for (int64_t gi = 0; gi < groups; ++gi) {
    GemmEpilogue epilogue;
    epilogue.bias = b + gi * g.k_per_group;
    epilogue.relu = relu;
    const float* a_g = wt + gi * g.k_per_group * g.rows;
    const ConvPatchView view =
        GroupPatchView(g, input.data(), gi, stride, pad);
    float* c_g = o + gi * g.k_per_group * cols;
    if (unit) {
      GemmPacked(g.k_per_group, cols, g.rows, a_g, g.rows, view.input, cols,
                 c_g, cols, epilogue, &scratch);
    } else {
      GemmPackedConv(g.k_per_group, cols, g.rows, a_g, g.rows, view, c_g,
                     cols, epilogue, &scratch);
    }
  }
  return out;
}

Result<Tensor> Conv2DGemmInt8(const Tensor& input, const QuantizedWeights& qw,
                              const Tensor& bias, int stride, int pad,
                              int groups, bool relu, float act_scale) {
  ConvGeom g;
  VISTA_RETURN_IF_ERROR(ComputeConvGeom("Conv2DGemmInt8", input.shape(),
                                        qw.shape, bias.shape(), stride, pad,
                                        groups, &g));
  if (static_cast<int64_t>(qw.scales.size()) != g.k_total ||
      static_cast<int64_t>(qw.data.size()) != qw.shape.num_elements()) {
    return Status::InvalidArgument("Conv2DGemmInt8: filters/groups mismatch");
  }
  // No im2col and no staging quantization pass: the implicit B packer
  // quantizes each gathered patch value with act_scale while packing
  // panels (the exact QuantizeSymmetric expression, so accumulators match
  // quantizing the expansion bit for bit). The only scratch
  // this path touches beyond the packed panels is the k_total-float
  // combined-scale vector.
  KernelScratch& scratch = KernelScratch::ThreadLocal();

  // Per-row combined dequant scale: weight channel scale x activation
  // scale (0 when either side hit the zero-scale guard).
  float* scales = scratch.Acquire(KernelScratch::Slot::kScales,
                                  static_cast<size_t>(g.k_total));
  const float act = act_scale > 0.0f ? act_scale : 0.0f;
  for (int64_t i = 0; i < g.k_total; ++i) {
    scales[i] = qw.scales[static_cast<size_t>(i)] * act;
  }

  Tensor out(g.out_shape);
  float* o = out.mutable_data();
  const int8_t* wt = qw.data.data();
  const float* b = bias.data();
  const int64_t cols = g.images * g.spatial;
  for (int64_t gi = 0; gi < groups; ++gi) {
    GemmInt8Epilogue epilogue;
    epilogue.scale = scales + gi * g.k_per_group;
    epilogue.bias = b + gi * g.k_per_group;
    epilogue.relu = relu;
    GemmPackedConvInt8(g.k_per_group, cols, g.rows,
                       wt + gi * g.k_per_group * g.rows, g.rows,
                       GroupPatchView(g, input.data(), gi, stride, pad),
                       act_scale, o + gi * g.k_per_group * cols, cols,
                       epilogue, &scratch);
  }
  return out;
}

Result<Tensor> FullyConnectedGemm(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias, bool relu) {
  int64_t n = 1;
  VISTA_RETURN_IF_ERROR(CheckFcShapes("FullyConnectedGemm", input.shape(),
                                      weights.shape(), bias.shape(), &n));
  const int64_t out_dim = weights.shape().dim(0);
  const int64_t in_dim = weights.shape().dim(1);
  Tensor out(input.shape().rank() == 2 ? Shape{out_dim, n} : Shape{out_dim});
  GemmEpilogue epilogue;
  epilogue.bias = bias.data();
  epilogue.relu = relu;
  GemmPacked(out_dim, n, in_dim, weights.data(), in_dim, input.data(), n,
             out.mutable_data(), n, epilogue, &KernelScratch::ThreadLocal());
  return out;
}

Result<Tensor> FullyConnectedInt8(const Tensor& input,
                                  const QuantizedWeights& qw,
                                  const Tensor& bias, bool relu,
                                  float act_scale) {
  int64_t n = 1;
  VISTA_RETURN_IF_ERROR(CheckFcShapes("FullyConnectedInt8", input.shape(),
                                      qw.shape, bias.shape(), &n));
  const int64_t out_dim = qw.shape.dim(0);
  const int64_t in_dim = qw.shape.dim(1);
  if (static_cast<int64_t>(qw.scales.size()) != out_dim) {
    return Status::InvalidArgument("FullyConnectedInt8: bias length mismatch");
  }
  KernelScratch& scratch = KernelScratch::ThreadLocal();
  int8_t* qx = static_cast<int8_t*>(scratch.AcquireBytes(
      KernelScratch::Slot::kQuantAct, static_cast<size_t>(in_dim * n)));
  QuantizeSymmetric(input.data(), in_dim * n, act_scale, qx);
  float* scales = scratch.Acquire(KernelScratch::Slot::kScales,
                                  static_cast<size_t>(out_dim));
  const float act = act_scale > 0.0f ? act_scale : 0.0f;
  for (int64_t i = 0; i < out_dim; ++i) {
    scales[i] = qw.scales[static_cast<size_t>(i)] * act;
  }
  Tensor out(input.shape().rank() == 2 ? Shape{out_dim, n} : Shape{out_dim});
  GemmInt8Epilogue epilogue;
  epilogue.scale = scales;
  epilogue.bias = bias.data();
  epilogue.relu = relu;
  GemmPackedInt8(out_dim, n, in_dim, qw.data.data(), in_dim, qx, n,
                 out.mutable_data(), n, epilogue, &scratch);
  return out;
}

}  // namespace vista
