#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vista {
namespace {

Status ExpectRank(const Tensor& t, int rank, const char* what) {
  if (t.shape().rank() != rank) {
    return Status::InvalidArgument(std::string(what) + ": expected rank " +
                                   std::to_string(rank) + ", got shape " +
                                   t.shape().ToString());
  }
  return Status::OK();
}

/// Feature maps: one CHW image (rank 3) or a channel-major (C, N, H, W)
/// group of N images (rank 4).
Status ExpectMaps(const Tensor& t, const char* what) {
  if (t.shape().rank() != 3 && t.shape().rank() != 4) {
    return Status::InvalidArgument(std::string(what) +
                                   ": expected a CHW image or a (C, N, H, W) "
                                   "group, got shape " +
                                   t.shape().ToString());
  }
  return Status::OK();
}

/// Whether an H x W map is at or below the grid x grid target resolution,
/// where GridMaxPool is the identity.
bool AtOrBelowGrid(int64_t h, int64_t w, int grid) {
  return h < grid || w < grid || (h == grid && w == grid);
}

enum class PoolKind { kMax, kAvg };

Result<Tensor> Pool2D(const Tensor& input, int window, int stride, int pad,
                      PoolKind kind) {
  VISTA_RETURN_IF_ERROR(ExpectMaps(input, "Pool2D input"));
  if (window < 1 || stride < 1 || pad < 0) {
    return Status::InvalidArgument("Pool2D: bad window/stride/pad");
  }
  // Every leading (channel, image) pair is one independent h x w plane.
  const int rank = input.shape().rank();
  const int64_t h = input.shape().dim(rank - 2);
  const int64_t w = input.shape().dim(rank - 1);
  const int64_t c = input.num_elements() / (h * w);
  if (window > h + 2 * pad || window > w + 2 * pad) {
    return Status::InvalidArgument("Pool2D: window larger than padded input");
  }
  const int64_t h_out = (h + 2 * pad - window) / stride + 1;
  const int64_t w_out = (w + 2 * pad - window) / stride + 1;
  if (h_out <= 0 || w_out <= 0) {
    return Status::InvalidArgument("Pool2D: output would be empty");
  }
  std::vector<int64_t> dims = input.shape().dims();
  dims[rank - 2] = h_out;
  dims[rank - 1] = w_out;
  Tensor out{Shape(std::move(dims))};
  float* o = out.mutable_data();
  const float* in = input.data();
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* in_c = in + ch * h * w;
    for (int64_t oy = 0; oy < h_out; ++oy) {
      for (int64_t ox = 0; ox < w_out; ++ox) {
        const int64_t iy0 = oy * stride - pad;
        const int64_t ix0 = ox * stride - pad;
        float best = -std::numeric_limits<float>::infinity();
        float sum = 0.0f;
        int64_t count = 0;
        for (int ky = 0; ky < window; ++ky) {
          const int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= h) continue;
          for (int kx = 0; kx < window; ++kx) {
            const int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= w) continue;
            const float v = in_c[iy * w + ix];
            best = std::max(best, v);
            sum += v;
            ++count;
          }
        }
        float result;
        if (kind == PoolKind::kMax) {
          result = count > 0 ? best : 0.0f;
        } else {
          result = count > 0 ? sum / static_cast<float>(count) : 0.0f;
        }
        o[(ch * h_out + oy) * w_out + ox] = result;
      }
    }
  }
  return out;
}

}  // namespace

Result<Tensor> MaxPool2D(const Tensor& input, int window, int stride,
                         int pad) {
  return Pool2D(input, window, stride, pad, PoolKind::kMax);
}

Result<Tensor> AvgPool2D(const Tensor& input, int window, int stride,
                         int pad) {
  return Pool2D(input, window, stride, pad, PoolKind::kAvg);
}

Result<Tensor> GlobalAvgPool(const Tensor& input) {
  VISTA_RETURN_IF_ERROR(ExpectMaps(input, "GlobalAvgPool input"));
  const int rank = input.shape().rank();
  const int64_t hw = input.shape().dim(rank - 2) * input.shape().dim(rank - 1);
  const int64_t c = input.num_elements() / hw;
  Tensor out(rank == 4 ? Shape{input.shape().dim(0), input.shape().dim(1)}
                       : Shape{c});
  const float* in = input.data();
  float* o = out.mutable_data();
  for (int64_t ch = 0; ch < c; ++ch) {
    double sum = 0.0;
    for (int64_t i = 0; i < hw; ++i) sum += in[ch * hw + i];
    o[ch] = static_cast<float>(sum / static_cast<double>(hw));
  }
  return out;
}

Tensor Relu(Tensor input) {
  Tensor out = std::move(input).Unshared();
  float* o = out.mutable_data();
  const int64_t n = out.num_elements();
  for (int64_t i = 0; i < n; ++i) o[i] = std::max(0.0f, o[i]);
  return out;
}

Result<Tensor> BatchNormInference(Tensor input, const Tensor& scale,
                                  const Tensor& shift) {
  VISTA_RETURN_IF_ERROR(ExpectMaps(input, "BatchNorm input"));
  const int64_t c = input.shape().dim(0);
  if (scale.num_elements() != c || shift.num_elements() != c) {
    return Status::InvalidArgument("BatchNorm: scale/shift length mismatch");
  }
  // Channel-major: a channel's values are contiguous for a group too.
  const int64_t hw = input.num_elements() / c;
  Tensor out = std::move(input).Unshared();
  float* o = out.mutable_data();
  const float* sc = scale.data();
  const float* sh = shift.data();
  for (int64_t ch = 0; ch < c; ++ch) {
    for (int64_t i = 0; i < hw; ++i) {
      o[ch * hw + i] = sc[ch] * o[ch * hw + i] + sh[ch];
    }
  }
  return out;
}

Result<Tensor> Add(Tensor a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument("Add: shape mismatch " +
                                   a.shape().ToString() + " vs " +
                                   b.shape().ToString());
  }
  Tensor out = std::move(a).Unshared();
  float* o = out.mutable_data();
  const float* bb = b.data();
  const int64_t n = out.num_elements();
  for (int64_t i = 0; i < n; ++i) o[i] += bb[i];
  return out;
}

Result<Tensor> Softmax(const Tensor& input) {
  const int rank = input.shape().rank();
  if (rank != 1 && rank != 2) {
    return Status::InvalidArgument(
        "Softmax input: expected a vector or a (D, N) group, got shape " +
        input.shape().ToString());
  }
  Tensor out = input.Clone();
  const int64_t n = input.shape().dim(0);
  const int64_t cols = rank == 2 ? input.shape().dim(1) : 1;
  for (int64_t j = 0; j < cols; ++j) {
    float* o = out.mutable_data() + j;  // Vector j, stride cols.
    float max_v = -std::numeric_limits<float>::infinity();
    for (int64_t i = 0; i < n; ++i) max_v = std::max(max_v, o[i * cols]);
    double sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      o[i * cols] = std::exp(o[i * cols] - max_v);
      sum += o[i * cols];
    }
    for (int64_t i = 0; i < n; ++i) {
      o[i * cols] = static_cast<float>(o[i * cols] / sum);
    }
  }
  return out;
}

Result<Tensor> LocalResponseNorm(const Tensor& input, int depth_radius,
                                 float bias, float alpha, float beta) {
  VISTA_RETURN_IF_ERROR(ExpectMaps(input, "LRN input"));
  const int64_t c = input.shape().dim(0);
  const int64_t hw = input.num_elements() / c;
  Tensor out(input.shape());
  const float* in = input.data();
  float* o = out.mutable_data();
  for (int64_t ch = 0; ch < c; ++ch) {
    const int64_t lo = std::max<int64_t>(0, ch - depth_radius);
    const int64_t hi = std::min<int64_t>(c - 1, ch + depth_radius);
    for (int64_t i = 0; i < hw; ++i) {
      float sq = 0.0f;
      for (int64_t j = lo; j <= hi; ++j) {
        const float v = in[j * hw + i];
        sq += v * v;
      }
      o[ch * hw + i] =
          in[ch * hw + i] / std::pow(bias + alpha * sq, beta);
    }
  }
  return out;
}

Status AppendGridMaxPool(const Tensor& input, int grid,
                         std::vector<float>* out) {
  VISTA_RETURN_IF_ERROR(ExpectRank(input, 3, "GridMaxPool input"));
  if (grid < 1) return Status::InvalidArgument("GridMaxPool: grid < 1");
  const int64_t c = input.shape().dim(0);
  const int64_t h = input.shape().dim(1);
  const int64_t w = input.shape().dim(2);
  const float* in = input.data();
  if (AtOrBelowGrid(h, w, grid)) {
    out->insert(out->end(), in, in + input.num_elements());
    return Status::OK();
  }
  const int64_t cells = int64_t{grid} * grid;
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(c * cells));
  float* o = out->data() + at;
  for (int g1 = 0; g1 < grid; ++g1) {
    const int64_t y0 = g1 * h / grid;
    const int64_t y1 = (g1 + 1) * h / grid;
    for (int g2 = 0; g2 < grid; ++g2) {
      const int64_t x0 = g2 * w / grid;
      const int64_t x1 = (g2 + 1) * w / grid;
      for (int64_t ch = 0; ch < c; ++ch) {
        const float* map = in + ch * h * w;
        float best = -std::numeric_limits<float>::infinity();
        for (int64_t y = y0; y < y1; ++y) {
          for (int64_t x = x0; x < x1; ++x) {
            best = std::max(best, map[y * w + x]);
          }
        }
        o[ch * cells + g1 * grid + g2] = best;
      }
    }
  }
  return Status::OK();
}

Result<Tensor> GridMaxPool(const Tensor& input, int grid) {
  std::vector<float> pooled;
  VISTA_RETURN_IF_ERROR(AppendGridMaxPool(input, grid, &pooled));
  const Shape& s = input.shape();
  return Tensor(AtOrBelowGrid(s.dim(1), s.dim(2), grid)
                    ? s
                    : Shape{s.dim(0), grid, grid},
                std::move(pooled));
}

int64_t Conv2DFlops(int64_t in_channels, int64_t out_channels,
                    int64_t out_height, int64_t out_width, int64_t kernel) {
  return 2 * in_channels * out_channels * out_height * out_width * kernel *
         kernel;
}

int64_t FullyConnectedFlops(int64_t in_features, int64_t out_features) {
  return 2 * in_features * out_features;
}

}  // namespace vista
