#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "tensor/gemm_kernel.h"
#include "tensor/scratch.h"

namespace vista {
namespace {

Status CheckMatMulShapes(const Tensor& a, const Tensor& b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    return Status::InvalidArgument("MatMul expects rank-2 tensors, got " +
                                   a.shape().ToString() + " x " +
                                   b.shape().ToString());
  }
  if (b.shape().dim(0) != a.shape().dim(1)) {
    return Status::InvalidArgument("MatMul inner dimensions mismatch: " +
                                   a.shape().ToString() + " x " +
                                   b.shape().ToString());
  }
  return Status::OK();
}

/// Writes the im2col expansion of `in` (CHW, dims c/h/w) into `out`, which
/// must hold groups * (c/groups * kernel * kernel) * (h_out * w_out)
/// floats. Row/column layout matches Im2Col's documented tensor layout.
void Im2ColInto(const float* in, int64_t c, int64_t h, int64_t w, int kernel,
                int stride, int pad, int groups, int64_t h_out,
                int64_t w_out, float* out) {
  const int64_t c_per_group = c / groups;
  const int64_t rows = c_per_group * kernel * kernel;
  const int64_t cols = h_out * w_out;
  for (int64_t g = 0; g < groups; ++g) {
    float* og = out + g * rows * cols;
    for (int64_t cc = 0; cc < c_per_group; ++cc) {
      const float* in_c = in + (g * c_per_group + cc) * h * w;
      for (int ky = 0; ky < kernel; ++ky) {
        for (int kx = 0; kx < kernel; ++kx) {
          float* row = og + ((cc * kernel + ky) * kernel + kx) * cols;
          for (int64_t oy = 0; oy < h_out; ++oy) {
            const int64_t iy = oy * stride - pad + ky;
            float* dst = row + oy * w_out;
            if (iy < 0 || iy >= h) {
              std::memset(dst, 0, sizeof(float) * w_out);
              continue;
            }
            const float* src_row = in_c + iy * w;
            for (int64_t ox = 0; ox < w_out; ++ox) {
              const int64_t ix = ox * stride - pad + kx;
              dst[ox] = (ix < 0 || ix >= w) ? 0.0f : src_row[ix];
            }
          }
        }
      }
    }
  }
}

/// Shared shape validation + derived geometry for the Conv2DGemm* family.
/// `name` prefixes error messages so each entry point keeps its own
/// diagnostics. The input is one CHW image or a channel-major
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
  const std::string p(name);
  if (ws.rank() != 4 || bias_shape.rank() != 1) {
    return Status::InvalidArgument(p + ": bad weights/bias rank");
  }
  g->k_total = ws.dim(0);
  g->kernel = static_cast<int>(ws.dim(2));
  if (ws.dim(2) != ws.dim(3)) {
    return Status::InvalidArgument(p + ": non-square kernel");
  }
  if (groups < 1 || g->k_total % groups != 0 ||
      bias_shape.dim(0) != g->k_total) {
    return Status::InvalidArgument(p + ": filters/groups mismatch");
  }
  const int rank = in_shape.rank();
  g->c = rank == 3 || rank == 4 ? in_shape.dim(0) : 0;
  if ((rank != 3 && rank != 4) || g->c % groups != 0 ||
      ws.dim(1) != g->c / groups) {
    return Status::InvalidArgument(
        p + ": input channels incompatible with weights/groups");
  }
  if (g->kernel < 1 || stride < 1 || pad < 0) {
    return Status::InvalidArgument(p + ": bad kernel/stride/pad");
  }
  g->images = rank == 4 ? in_shape.dim(1) : 1;
  g->h = in_shape.dim(rank - 2);
  g->w = in_shape.dim(rank - 1);
  if (g->kernel > g->h + 2 * pad || g->kernel > g->w + 2 * pad) {
    return Status::InvalidArgument(p + ": kernel larger than padded input");
  }
  g->h_out = (g->h + 2 * pad - g->kernel) / stride + 1;
  g->w_out = (g->w + 2 * pad - g->kernel) / stride + 1;
  if (g->h_out <= 0 || g->w_out <= 0 || g->images < 1) {
    return Status::InvalidArgument(p + ": empty output");
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
  const std::string p(name);
  if (ws.rank() != 2 || bias.rank() != 1) {
    return Status::InvalidArgument(p + ": bad weights/bias rank");
  }
  if ((in.rank() != 1 && in.rank() != 2) || in.dim(0) != ws.dim(1)) {
    return Status::InvalidArgument(
        p + ": input shape " + in.ToString() + " does not hold vectors of " +
        std::to_string(ws.dim(1)) + " elements");
  }
  if (bias.dim(0) != ws.dim(0)) {
    return Status::InvalidArgument(p + ": bias length mismatch");
  }
  *n = in.rank() == 2 ? in.dim(1) : 1;
  return Status::OK();
}

}  // namespace

Result<Tensor> MatMul(const Tensor& a, const Tensor& b) {
  VISTA_RETURN_IF_ERROR(CheckMatMulShapes(a, b));
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  Tensor c(Shape{m, n});
  GemmPacked(m, n, k, a.data(), k, b.data(), n, c.mutable_data(), n,
             GemmEpilogue{}, &KernelScratch::ThreadLocal());
  return c;
}

Result<Tensor> MatMulReference(const Tensor& a, const Tensor& b) {
  VISTA_RETURN_IF_ERROR(CheckMatMulShapes(a, b));
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  Tensor c(Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.mutable_data();
  // i-k-j loop order with the inner loop over contiguous rows of B and C.
  // No data-dependent skips: every IEEE special value flows through.
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = pc + i * n;
    const float* a_row = pa + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a_row[kk];
      const float* b_row = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += av * b_row[j];
      }
    }
  }
  return c;
}

Result<Tensor> Im2Col(const Tensor& input, int kernel, int stride, int pad,
                      int groups) {
  if (input.shape().rank() != 3) {
    return Status::InvalidArgument("Im2Col expects a CHW tensor");
  }
  if (kernel < 1 || stride < 1 || pad < 0 || groups < 1) {
    return Status::InvalidArgument("Im2Col: bad kernel/stride/pad/groups");
  }
  const int64_t c = input.shape().dim(0);
  const int64_t h = input.shape().dim(1);
  const int64_t w = input.shape().dim(2);
  if (c % groups != 0) {
    return Status::InvalidArgument("Im2Col: channels not divisible");
  }
  if (kernel > h + 2 * pad || kernel > w + 2 * pad) {
    return Status::InvalidArgument("Im2Col: kernel larger than padded input");
  }
  const int64_t h_out = (h + 2 * pad - kernel) / stride + 1;
  const int64_t w_out = (w + 2 * pad - kernel) / stride + 1;
  if (h_out <= 0 || w_out <= 0) {
    return Status::InvalidArgument("Im2Col: empty output");
  }
  const int64_t c_per_group = c / groups;
  const int64_t rows = c_per_group * kernel * kernel;
  const int64_t cols = h_out * w_out;
  Tensor out(Shape{groups, rows, cols});
  Im2ColInto(input.data(), c, h, w, kernel, stride, pad, groups, h_out,
             w_out, out.mutable_data());
  return out;
}

Result<Tensor> Conv2DGemm(const Tensor& input, const Tensor& weights,
                          const Tensor& bias, int stride, int pad,
                          int groups) {
  return Conv2DGemmImplicit(input, weights, bias, stride, pad, groups,
                            /*relu=*/false);
}

Result<Tensor> Conv2DGemmEx(const Tensor& input, const Tensor& weights,
                            const Tensor& bias, int stride, int pad,
                            int groups, bool relu, ThreadPool* pool) {
  if (input.shape().rank() != 3) {
    return Status::InvalidArgument("Conv2DGemmEx expects one CHW image");
  }
  ConvGeom g;
  VISTA_RETURN_IF_ERROR(ComputeConvGeom("Conv2DGemm", input.shape(),
                                        weights.shape(), bias.shape(), stride,
                                        pad, groups, &g));
  // im2col into the thread-local arena: reused across layers and images,
  // so a warmed-up convolution performs no scratch allocation. This is the
  // only remaining producer of the kIm2Col slot — the implicit hot path
  // below never materializes the expansion.
  KernelScratch& scratch = KernelScratch::ThreadLocal();
  float* cols = scratch.Acquire(
      KernelScratch::Slot::kIm2Col,
      static_cast<size_t>(groups * g.rows * g.spatial));
  Im2ColInto(input.data(), g.c, g.h, g.w, g.kernel, stride, pad, groups,
             g.h_out, g.w_out, cols);

  Tensor out(g.out_shape);
  float* o = out.mutable_data();
  const float* wt = weights.data();
  const float* b = bias.data();
  for (int64_t gi = 0; gi < groups; ++gi) {
    // Zero-copy group views: the group's filter matrix (k_per_group x rows)
    // and patch matrix (rows x spatial) are contiguous slices addressed by
    // pointer + stride, never materialized as tensors.
    GemmEpilogue epilogue;
    epilogue.bias = b + gi * g.k_per_group;
    epilogue.relu = relu;
    const float* a_g = wt + gi * g.k_per_group * g.rows;
    const float* b_g = cols + gi * g.rows * g.spatial;
    float* c_g = o + gi * g.k_per_group * g.spatial;
    if (pool != nullptr) {
      GemmPackedParallel(g.k_per_group, g.spatial, g.rows, a_g, g.rows, b_g,
                         g.spatial, c_g, g.spatial, epilogue, pool);
    } else {
      GemmPacked(g.k_per_group, g.spatial, g.rows, a_g, g.rows, b_g,
                 g.spatial, c_g, g.spatial, epilogue, &scratch);
    }
  }
  return out;
}

Result<Tensor> Conv2DGemmImplicit(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias, int stride, int pad,
                                  int groups, bool relu) {
  ConvGeom g;
  VISTA_RETURN_IF_ERROR(ComputeConvGeom("Conv2DGemm", input.shape(),
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
  // the old quantize-the-expansion path bit for bit). The only scratch
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
