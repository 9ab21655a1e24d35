#include "oracle/kernels.h"

#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm_kernel.h"
#include "tensor/scratch.h"

namespace vista::oracle {
namespace {

Status ExpectRank(const Tensor& t, int rank, const char* what) {
  if (t.shape().rank() != rank) {
    return Status::InvalidArgument(std::string(what) + ": expected rank " +
                                   std::to_string(rank) + ", got shape " +
                                   t.shape().ToString());
  }
  return Status::OK();
}

/// The im2col expansion of one image for `ws`-shaped (K, C/groups, k, k)
/// weights, with each conv group's GEMM dimensions: m filters by
/// `spatial` columns over `rows` patch rows.
struct Expansion {
  Tensor cols;
  int64_t m = 0;
  int64_t rows = 0;
  int64_t spatial = 0;
  Shape out_shape;
};

Result<Expansion> Expand(const Tensor& input, const Shape& ws,
                         const Tensor& bias, int stride, int pad,
                         int groups) {
  if (ws.rank() != 4 || ws.dim(2) != ws.dim(3) || groups < 1 ||
      ws.dim(0) % groups != 0 || bias.shape().rank() != 1 ||
      bias.shape().dim(0) != ws.dim(0)) {
    return Status::InvalidArgument(
        "explicit conv: bad weights/bias/groups " + ws.ToString());
  }
  const int kernel = static_cast<int>(ws.dim(2));
  Expansion e;
  VISTA_ASSIGN_OR_RETURN(e.cols, Im2Col(input, kernel, stride, pad, groups));
  e.rows = e.cols.shape().dim(1);
  e.spatial = e.cols.shape().dim(2);
  if (e.rows != ws.dim(1) * kernel * kernel) {
    return Status::InvalidArgument(
        "explicit conv: weights do not match the input channels/groups");
  }
  e.m = ws.dim(0) / groups;
  const Shape& in = input.shape();
  e.out_shape = Shape{ws.dim(0), (in.dim(1) + 2 * pad - kernel) / stride + 1,
                      (in.dim(2) + 2 * pad - kernel) / stride + 1};
  return e;
}

}  // namespace

Result<Tensor> Conv2D(const Tensor& input, const Tensor& weights,
                      const Tensor& bias, int stride, int pad, int groups) {
  VISTA_RETURN_IF_ERROR(ExpectRank(input, 3, "Conv2D input"));
  VISTA_RETURN_IF_ERROR(ExpectRank(weights, 4, "Conv2D weights"));
  VISTA_RETURN_IF_ERROR(ExpectRank(bias, 1, "Conv2D bias"));
  if (stride < 1 || pad < 0 || groups < 1) {
    return Status::InvalidArgument("Conv2D: bad stride/pad/groups");
  }
  const int64_t c_in = input.shape().dim(0);
  const int64_t h = input.shape().dim(1);
  const int64_t w = input.shape().dim(2);
  const int64_t k = weights.shape().dim(0);
  const int64_t r = weights.shape().dim(2);
  const int64_t s = weights.shape().dim(3);
  if (c_in % groups != 0 || k % groups != 0) {
    return Status::InvalidArgument(
        "Conv2D: channels not divisible by groups");
  }
  const int64_t c_per_group = c_in / groups;
  if (weights.shape().dim(1) != c_per_group) {
    return Status::InvalidArgument(
        "Conv2D: weight channel dim " +
        std::to_string(weights.shape().dim(1)) + " != input channels/groups " +
        std::to_string(c_per_group));
  }
  if (bias.shape().dim(0) != k) {
    return Status::InvalidArgument("Conv2D: bias length != filter count");
  }
  if (r > h + 2 * pad || s > w + 2 * pad) {
    return Status::InvalidArgument("Conv2D: kernel larger than padded input " +
                                   input.shape().ToString());
  }
  const int64_t h_out = (h + 2 * pad - r) / stride + 1;
  const int64_t w_out = (w + 2 * pad - s) / stride + 1;
  if (h_out <= 0 || w_out <= 0) {
    return Status::InvalidArgument("Conv2D: output would be empty for input " +
                                   input.shape().ToString());
  }

  Tensor out(Shape{k, h_out, w_out});
  float* o = out.mutable_data();
  const float* in = input.data();
  const float* wt = weights.data();
  const float* b = bias.data();

  const int64_t k_per_group = k / groups;
  for (int64_t f = 0; f < k; ++f) {
    const float* wf = wt + f * c_per_group * r * s;
    const int64_t group_c0 = (f / k_per_group) * c_per_group;
    for (int64_t oy = 0; oy < h_out; ++oy) {
      const int64_t iy0 = oy * stride - pad;
      for (int64_t ox = 0; ox < w_out; ++ox) {
        const int64_t ix0 = ox * stride - pad;
        float acc = b[f];
        for (int64_t c = 0; c < c_per_group; ++c) {
          const float* in_c = in + (group_c0 + c) * h * w;
          const float* w_c = wf + c * r * s;
          for (int64_t ky = 0; ky < r; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= h) continue;
            const float* in_row = in_c + iy * w;
            const float* w_row = w_c + ky * s;
            for (int64_t kx = 0; kx < s; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= w) continue;
              acc += in_row[ix] * w_row[kx];
            }
          }
        }
        o[(f * h_out + oy) * w_out + ox] = acc;
      }
    }
  }
  return out;
}

Result<Tensor> FullyConnected(const Tensor& input, const Tensor& weights,
                              const Tensor& bias) {
  VISTA_RETURN_IF_ERROR(ExpectRank(weights, 2, "FullyConnected weights"));
  VISTA_RETURN_IF_ERROR(ExpectRank(bias, 1, "FullyConnected bias"));
  const int64_t out_dim = weights.shape().dim(0);
  const int64_t in_dim = weights.shape().dim(1);
  if (input.num_elements() != in_dim) {
    return Status::InvalidArgument(
        "FullyConnected: input has " + std::to_string(input.num_elements()) +
        " elements, weights expect " + std::to_string(in_dim));
  }
  if (bias.shape().dim(0) != out_dim) {
    return Status::InvalidArgument("FullyConnected: bias length mismatch");
  }
  Tensor out(Shape{out_dim});
  const float* x = input.data();
  const float* w = weights.data();
  const float* b = bias.data();
  float* o = out.mutable_data();
  for (int64_t r = 0; r < out_dim; ++r) {
    const float* wr = w + r * in_dim;
    double acc = b[r];
    for (int64_t c = 0; c < in_dim; ++c) acc += wr[c] * x[c];
    o[r] = static_cast<float>(acc);
  }
  return out;
}

Result<Tensor> MatMul(const Tensor& a, const Tensor& b) {
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
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t n = b.shape().dim(1);
  Tensor c(Shape{m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.mutable_data();
  // i-k-j loop order with the inner loop over contiguous rows of B and C.
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
  const float* in = input.data();
  for (int64_t g = 0; g < groups; ++g) {
    float* og = out.mutable_data() + g * rows * cols;
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
  return out;
}

Result<Tensor> Conv2DExplicitGemm(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias, int stride, int pad,
                                  int groups, bool relu) {
  VISTA_ASSIGN_OR_RETURN(
      Expansion e,
      Expand(input, weights.shape(), bias, stride, pad, groups));
  Tensor out(e.out_shape);
  KernelScratch scratch;
  for (int64_t g = 0; g < groups; ++g) {
    GemmEpilogue epilogue;
    epilogue.bias = bias.data() + g * e.m;
    epilogue.relu = relu;
    GemmPacked(e.m, e.spatial, e.rows, weights.data() + g * e.m * e.rows,
               e.rows, e.cols.data() + g * e.rows * e.spatial, e.spatial,
               out.mutable_data() + g * e.m * e.spatial, e.spatial, epilogue,
               &scratch);
  }
  return out;
}

Result<Tensor> Conv2DExplicitGemmInt8(const Tensor& input,
                                      const QuantizedWeights& qw,
                                      const Tensor& bias, int stride, int pad,
                                      int groups, bool relu,
                                      float act_scale) {
  VISTA_ASSIGN_OR_RETURN(Expansion e,
                         Expand(input, qw.shape, bias, stride, pad, groups));
  const int64_t filters = qw.shape.dim(0);
  if (static_cast<int64_t>(qw.scales.size()) != filters ||
      static_cast<int64_t>(qw.data.size()) != qw.shape.num_elements()) {
    return Status::InvalidArgument("explicit conv: bad quantized weights");
  }
  // Combined dequant scale per filter, with the kernel's zero-scale guard.
  const float act = act_scale > 0.0f ? act_scale : 0.0f;
  std::vector<float> scales(static_cast<size_t>(filters));
  for (int64_t i = 0; i < filters; ++i) {
    scales[static_cast<size_t>(i)] = qw.scales[static_cast<size_t>(i)] * act;
  }
  std::vector<int8_t> cols_q(static_cast<size_t>(e.rows * e.spatial));
  Tensor out(e.out_shape);
  KernelScratch scratch;
  for (int64_t g = 0; g < groups; ++g) {
    QuantizeSymmetric(e.cols.data() + g * e.rows * e.spatial,
                      e.rows * e.spatial, act_scale, cols_q.data());
    GemmInt8Epilogue epilogue;
    epilogue.scale = scales.data() + g * e.m;
    epilogue.bias = bias.data() + g * e.m;
    epilogue.relu = relu;
    GemmPackedInt8(e.m, e.spatial, e.rows, qw.data.data() + g * e.m * e.rows,
                   e.rows, cols_q.data(), e.spatial,
                   out.mutable_data() + g * e.m * e.spatial, e.spatial,
                   epilogue, &scratch);
  }
  return out;
}

}  // namespace vista::oracle
