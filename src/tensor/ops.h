#ifndef VISTA_TENSOR_OPS_H_
#define VISTA_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace vista {

/// Neural-network kernels operating on single-record tensors (CHW images or
/// rank-1 vectors). These are the TensorOps of Definition 3.3: each takes a
/// tensor of a fixed expected shape and produces a tensor of a fixed shape.
/// The pooling, normalization and softmax ops also take a channel-major
/// group of N records — (C, N, H, W) maps or (D, N) vectors, the layout
/// batched inference runs on (tensor/gemm.h) — and treat each record
/// exactly as they treat a single one.
///
/// Convolution and fully connected layers run on the packed GEMM
/// (tensor/gemm.h); the ops here are plain loops, verified by tests against
/// hand-computed results.

/// Max pooling with a square window and stride over a CHW input.
Result<Tensor> MaxPool2D(const Tensor& input, int window, int stride,
                         int pad = 0);

/// Average pooling with a square window and stride over a CHW input.
Result<Tensor> AvgPool2D(const Tensor& input, int window, int stride,
                         int pad = 0);

/// Global average pooling: reduces C x H x W to a length-C vector (a
/// (C, N, H, W) group to (C, N)).
Result<Tensor> GlobalAvgPool(const Tensor& input);

/// Element-wise max(0, x). Like BatchNormInference and Add, writes over
/// the input's buffer when the caller hands over its only reference
/// (Tensor::Unshared), and copies otherwise.
Tensor Relu(Tensor input);

/// Inference-mode batch normalization over channels of a CHW input:
/// y_c = scale_c * x_c + shift_c (scale/shift fold mean/variance).
Result<Tensor> BatchNormInference(Tensor input, const Tensor& scale,
                                  const Tensor& shift);

/// Element-wise addition; shapes must match (residual connections).
Result<Tensor> Add(Tensor a, const Tensor& b);

/// Numerically stable softmax over a rank-1 tensor (over each column of a
/// (D, N) group).
Result<Tensor> Softmax(const Tensor& input);

/// AlexNet-style local response normalization across channels.
Result<Tensor> LocalResponseNorm(const Tensor& input, int depth_radius = 2,
                                 float bias = 2.0f, float alpha = 1e-4f,
                                 float beta = 0.75f);

/// The paper's dimensionality reducer for convolutional feature layers
/// (footnote 4): max pooling with filter width and stride chosen so the
/// C x H x W tensor reduces to a C x grid x grid tensor of the same depth.
/// Cell (i, j) takes the max over rows [i*H/grid, (i+1)*H/grid) and
/// columns [j*W/grid, (j+1)*W/grid), starting from -inf, so a NaN never
/// wins a pooled window. A map already at or below the target resolution
/// (H or W below grid, or H = W = grid) is the identity, NaN included.
Result<Tensor> GridMaxPool(const Tensor& input, int grid = 2);

/// GridMaxPool writing into caller memory: appends the pooled values of a
/// C x H x W `input` to `*out`. The one pooling loop: it computes each
/// cell's window bounds once per call and allocates nothing once `*out`'s
/// capacity suffices.
Status AppendGridMaxPool(const Tensor& input, int grid,
                         std::vector<float>* out);

/// FLOP counts used by layer statistics and the simulator's cost model.
/// Convention: one multiply-accumulate = 2 FLOPs.
int64_t Conv2DFlops(int64_t in_channels, int64_t out_channels,
                    int64_t out_height, int64_t out_width, int64_t kernel);
int64_t FullyConnectedFlops(int64_t in_features, int64_t out_features);

}  // namespace vista

#endif  // VISTA_TENSOR_OPS_H_
