#ifndef VISTA_TENSOR_GEMM_H_
#define VISTA_TENSOR_GEMM_H_

#include <cstdint>

#include "common/status.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace vista {

class ThreadPool;

/// Dense single-precision matrix multiply: C = A (m x k) * B (k x n),
/// row-major, written into a fresh tensor. Runs on the blocked, packed
/// GEMM core (tensor/gemm_kernel.h): register micro-tiling, cache
/// blocking, and panel packing into the calling thread's scratch arena.
/// No data-dependent branching, so NaN/Inf propagate exactly as IEEE
/// arithmetic dictates.
Result<Tensor> MatMul(const Tensor& a, const Tensor& b);

/// The naive i-k-j triple loop kept as the correctness oracle for the
/// packed kernel (tests compare against it on random shapes) and as the
/// baseline the micro benches measure speedup against.
Result<Tensor> MatMulReference(const Tensor& a, const Tensor& b);

/// im2col expansion of a CHW input for a (kernel x kernel, stride, pad)
/// convolution over `groups` channel groups: produces, for group `g`, a
/// matrix of shape (C/groups * kernel * kernel) x (H_out * W_out) laid out
/// so that the group's filter matrix can be applied with one MatMul.
/// Returns a rank-3 tensor (groups, C/groups*k*k, H_out*W_out).
Result<Tensor> Im2Col(const Tensor& input, int kernel, int stride, int pad,
                      int groups);

/// Convolution as GEMM — an independent implementation of tensor/ops.h's
/// Conv2D with identical semantics (including groups), differential-tested
/// against the direct loops. Routes to Conv2DGemmImplicit (no relu), the
/// path CnnModel runs.
Result<Tensor> Conv2DGemm(const Tensor& input, const Tensor& weights,
                          const Tensor& bias, int stride, int pad,
                          int groups = 1);

/// Explicit im2col + GEMM reference: materializes the patch-matrix
/// expansion into the thread-local arena (Slot::kIm2Col — this is the only
/// remaining producer of that slot), then runs each group's packed GEMM
/// over strided views. `relu` folds max(0, x) into the GEMM's output pass,
/// and a non-null `pool` distributes each group's GEMM row tiles with
/// ThreadPool::ParallelFor (safe under nesting; see thread_pool.h).
/// Kept as the differential-test oracle and bench baseline for the
/// implicit path below, which is bit-identical by construction.
Result<Tensor> Conv2DGemmEx(const Tensor& input, const Tensor& weights,
                            const Tensor& bias, int stride, int pad,
                            int groups, bool relu, ThreadPool* pool);

/// Convolution as *implicit* GEMM — the hot path. Same semantics and
/// epilogue as Conv2DGemmEx, but the patch matrix is never materialized:
/// the GEMM's B-panel packer gathers patch elements straight from the
/// padded input while packing KC x NC panels (tensor/gemm_kernel.h), so
/// conv scratch drops from the full C/g*k^2 x H_out*W_out expansion to
/// the two packed panels. A 1x1/stride-1/pad-0 convolution skips the
/// gather entirely and feeds the input tensor to the packed GEMM in
/// place. Output is bit-identical to Conv2DGemmEx: the packed panels are
/// byte-identical, so the accumulation order is unchanged.
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
/// matches ops.h's double-accumulating FullyConnected (the test oracle)
/// within the mixed tolerance the GEMM tests use, and each column is
/// bit-identical whatever N is.
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
