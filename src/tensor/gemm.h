#ifndef VISTA_TENSOR_GEMM_H_
#define VISTA_TENSOR_GEMM_H_

#include <cstdint>

#include "common/status.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace vista {

/// Convolution as *implicit* GEMM: K filters of shape (C/groups, k, k)
/// over a CHW input with zero padding `pad` on all sides and a square
/// stride, plus a per-filter bias and, when `relu`, max(0, x), both fused
/// into the GEMM epilogue. `groups` > 1 splits the input channels into
/// `groups` contiguous blocks, one per block of K/groups filters. The
/// patch matrix is never materialized: the GEMM's B-panel packer gathers
/// patch elements straight from the padded input while packing KC x NC
/// panels (tensor/gemm_kernel.h), so conv scratch is the two packed panels.
/// A 1x1/stride-1/pad-0 convolution skips the gather entirely and feeds
/// the input tensor to the packed GEMM in place. Output is bit-identical
/// to GemmPacked over the materialized expansion, and close to the direct
/// loops (oracle/kernels.h has both).
///
/// `input` is one CHW image, or a channel-major group of N images of
/// shape (C, N, H, W) (channel c of image i is the plane [c][i]); a group
/// runs as one GEMM per conv group with N * H_out * W_out columns and
/// yields (K, N, H_out, W_out). Every output column sums over K in the
/// same panels whatever N is, so each image's output is bit-identical to
/// convolving it alone.
Result<Tensor> Conv2DGemmImplicit(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias, int stride, int pad,
                                  int groups, bool relu);

/// Conv2DGemmImplicit on the quantized kernel: the implicit B packer
/// quantizes each gathered patch value per-tensor with `act_scale` (the
/// calibrated symmetric input scale; <= 0 is the zero-scale guard and
/// quantizes to zeros) while packing — no fp32 expansion and no staging
/// quantization pass — then each group's GEMM runs int8 x int8 into
/// int32, and the fused epilogue dequantizes with the per-output-channel
/// combined scale (weight_scale * act_scale), adds the fp32 bias and
/// applies ReLU. Output and layer boundaries stay fp32. Int32
/// accumulators are bit-identical to quantizing a materialized expansion.
/// Accepts one image or a (C, N, H, W) group, like Conv2DGemmImplicit.
Result<Tensor> Conv2DGemmInt8(const Tensor& input, const QuantizedWeights& qw,
                              const Tensor& bias, int stride, int pad,
                              int groups, bool relu, float act_scale);

/// Fully connected layer on the packed GEMM: y = W x + b with W of shape
/// (out, in), then optional ReLU, both fused into the GEMM epilogue.
/// `input` is one vector (in) or a group of N vectors stored as the
/// (in, N) matrix whose column i is vector i, giving (out) or (out, N):
/// one GEMM with N columns, so the weight panel is packed once per group
/// instead of once per vector. Accumulates in fp32 over K panels, so it
/// matches the double-accumulating oracle::FullyConnected within the mixed
/// tolerance the GEMM tests use, and each column is bit-identical whatever
/// N is.
Result<Tensor> FullyConnectedGemm(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias, bool relu);

/// FullyConnectedGemm on the quantized kernel (y = dequant(W_q x_q) + b,
/// optional fused ReLU), over one vector or an (in, N) group.
Result<Tensor> FullyConnectedInt8(const Tensor& input,
                                  const QuantizedWeights& qw,
                                  const Tensor& bias, bool relu,
                                  float act_scale);

}  // namespace vista

#endif  // VISTA_TENSOR_GEMM_H_
