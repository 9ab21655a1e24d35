#ifndef VISTA_ORACLE_KERNELS_H_
#define VISTA_ORACLE_KERNELS_H_

#include "common/status.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

/// Reference implementations that the tests and bench_micro_kernels check
/// the production kernels (tensor/gemm.h) against. They are written for
/// clarity, not speed, and no library under src/ links them.
namespace vista::oracle {

/// 2-D convolution of a CHW input with KCRS weights (K filters of size
/// C x R x S), plus a per-filter bias of length K, as direct loops. Zero
/// padding `pad` on all sides, square stride. Output is K x H' x W' with
/// H' = (H + 2*pad - R)/stride + 1 (and similarly W').
/// `groups` > 1 selects grouped convolution: input channels are split into
/// `groups` contiguous blocks and filter k reads only block k*groups/K
/// (weights then have shape K x C/groups x R x S), as in AlexNet.
Result<Tensor> Conv2D(const Tensor& input, const Tensor& weights,
                      const Tensor& bias, int stride, int pad,
                      int groups = 1);

/// Fully connected layer: y = W x + b with W of shape (out, in), x rank-1,
/// accumulated in double.
Result<Tensor> FullyConnected(const Tensor& input, const Tensor& weights,
                              const Tensor& bias);

/// C = A (m x k) * B (k x n), row-major, as the naive i-k-j triple loop.
/// It has no data-dependent skips, so NaN and Inf propagate exactly as
/// IEEE arithmetic dictates.
Result<Tensor> MatMul(const Tensor& a, const Tensor& b);

/// im2col expansion of a CHW input for a (kernel x kernel, stride, pad)
/// convolution over `groups` channel groups: for group `g`, a matrix of
/// shape (C/groups * kernel * kernel) x (H_out * W_out), row r = (channel,
/// kernel-y, kernel-x) and column q = (output row, output column), with
/// taps in the zero-padding border 0. Returns the rank-3 tensor (groups,
/// C/groups*k*k, H_out*W_out). This is the patch matrix that the implicit
/// B-panel packers (tensor/gemm_kernel.h) gather without writing it.
Result<Tensor> Im2Col(const Tensor& input, int kernel, int stride, int pad,
                      int groups);

/// The specification of Conv2DGemmImplicit on one CHW image: Im2Col, then
/// one GemmPacked per conv group over the materialized expansion, with the
/// bias and `relu` in the GEMM epilogue. The implicit packer copies the
/// same values in the same panel order, so the two are bit-identical.
Result<Tensor> Conv2DExplicitGemm(const Tensor& input, const Tensor& weights,
                                  const Tensor& bias, int stride, int pad,
                                  int groups, bool relu);

/// The specification of Conv2DGemmInt8 on one CHW image: Im2Col, quantize
/// each group's expansion with QuantizeSymmetric(act_scale), then one
/// GemmPackedInt8 per conv group with the same dequantizing epilogue.
Result<Tensor> Conv2DExplicitGemmInt8(const Tensor& input,
                                      const QuantizedWeights& qw,
                                      const Tensor& bias, int stride, int pad,
                                      int groups, bool relu, float act_scale);

}  // namespace vista::oracle

#endif  // VISTA_ORACLE_KERNELS_H_
