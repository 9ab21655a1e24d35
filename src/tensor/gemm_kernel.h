#ifndef VISTA_TENSOR_GEMM_KERNEL_H_
#define VISTA_TENSOR_GEMM_KERNEL_H_

#include <cstdint>

#include "tensor/scratch.h"

namespace vista {

class ThreadPool;

/// Blocked, packed single-precision GEMM — the compute core under
/// Conv2DGemmImplicit and FullyConnectedGemm (BLIS-style: register
/// micro-tile, L1/L2 cache blocking, panel packing into a reusable scratch
/// arena).
///
/// Register micro-tile: each micro-kernel invocation accumulates a
/// kGemmMR x kGemmNR block of C in local accumulators; the inner loops are
/// fixed-trip so the compiler keeps the block in vector registers.
inline constexpr int64_t kGemmMR = 6;
inline constexpr int64_t kGemmNR = 16;
/// Cache blocking: a kGemmKC x kGemmNR B-strip stays L1-resident across one
/// row of micro-tiles; the packed kGemmMC x kGemmKC A panel targets L2.
/// kGemmMC is a multiple of kGemmMR and kGemmNC a multiple of kGemmNR.
inline constexpr int64_t kGemmMC = 96;
inline constexpr int64_t kGemmKC = 256;
inline constexpr int64_t kGemmNC = 2048;

/// Optional fused output transform applied as C is written on the last
/// K-panel, saving a second pass over the output.
struct GemmEpilogue {
  /// Per-row addend of length m (a convolution's per-filter bias); null
  /// skips the add.
  const float* bias = nullptr;
  /// Applies max(0, x) after the bias add (a convolution's fused ReLU).
  bool relu = false;
};

/// C (m x n, row stride ldc) = A (m x k, row stride lda) * B (k x n, row
/// stride ldb), overwriting C, then applies `epilogue`. The row strides
/// admit strided views into larger tensors, which is what makes grouped
/// convolution zero-copy. Pack buffers come from `scratch` (slots kPackA /
/// kPackB), so steady-state calls allocate nothing.
void GemmPacked(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                const float* b, int64_t ldb, float* c, int64_t ldc,
                const GemmEpilogue& epilogue, KernelScratch* scratch);

/// ---- Implicit-GEMM convolution ----------------------------------------
///
/// Geometry of one convolution group's *implicit* patch matrix over a
/// group of images: the (C/g * kernel * kernel) x (images * H_out * W_out)
/// im2col expansion (oracle::Im2Col writes it out for one image), described
/// instead by the mapping
///   B[r][q] = input[c][i][oy*stride - pad + ky][ox*stride - pad + kx]
/// with r = (c, ky, kx) row-major over (channel, kernel-y, kernel-x) and
/// q = (i, oy, ox) row-major over (image, output row, output column);
/// elements whose window taps land in the zero-padding border are 0. The
/// input is channel-major: channel c of image i is the h x w plane at
/// input + (c * images + i) * h * w, so one image is plain CHW and the
/// GEMM's output C (m x images*H_out*W_out) is again channel-major. Each
/// output column depends only on its own image, so a column's value is
/// the same whatever the group around it. The implicit B-panel packer
/// gathers straight from this view while packing KC x NC panels, so the
/// expansion is never written to memory: the conv's scratch footprint
/// drops from C/g*k*k * columns floats to the two packed panels.
struct ConvPatchView {
  /// First channel of this conv group's input (channel-major, above).
  const float* input = nullptr;
  /// Images in the group; the image stride within a channel is h * w.
  int64_t images = 1;
  /// Input spatial dims.
  int64_t h = 0;
  int64_t w = 0;
  int kernel = 1;
  int stride = 1;
  int pad = 0;
  /// Output width (columns decompose as q = (i * h_out + oy) * w_out + ox).
  int64_t w_out = 1;
};

/// GemmPacked with the B operand sourced from `b`'s implicit patch matrix:
/// C (m x n) = A (m x k) * im2col(b), bit-identical to materializing the
/// expansion and calling GemmPacked on it (the packer gathers the exact
/// values PackB would copy, in the same panel order, so the accumulation
/// order is unchanged — only the operand source differs). `n` must be
/// images * h_out * w_out and `k` the patch-row count of the view.
void GemmPackedConv(int64_t m, int64_t n, int64_t k, const float* a,
                    int64_t lda, const ConvPatchView& b, float* c,
                    int64_t ldc, const GemmEpilogue& epilogue,
                    KernelScratch* scratch);

/// GemmPacked with row-tile (M-dimension) parallelism across `pool`: the B
/// panel is packed once by the caller, then the M blocks are distributed
/// with ThreadPool::ParallelFor (caller-inclusive, so this is safe to call
/// from inside a pool task). Each participating thread packs its own A
/// panels into its thread-local arena. Falls back to the serial kernel when
/// `pool` is null or the problem is too small to amortize dispatch.
void GemmPackedParallel(int64_t m, int64_t n, int64_t k, const float* a,
                        int64_t lda, const float* b, int64_t ldb, float* c,
                        int64_t ldc, const GemmEpilogue& epilogue,
                        ThreadPool* pool);

/// Cumulative FLOPs executed by the packed GEMM in this process
/// (2*m*n*k per call, relaxed-atomic). Benches compute achieved GFLOP/s
/// from deltas around a timed region; see obs gauge "tensor.gemm_gflops".
int64_t GemmFlopsTotal();

/// ---- Quantized (int8) packed GEMM -------------------------------------
///
/// Same BLIS-style structure as the fp32 kernel (6x16 register micro-tile,
/// MC/NC blocking, panel packing into KernelScratch), but the inner loop
/// does widening int8 x int8 multiply-accumulate into int32. Because int8
/// panels are a quarter the size, the K panel quadruples so a packed
/// kGemmNR-column B strip still fills the same L1 footprint.
///
/// Packing is k4-blocked to match the VNNI dot-product instruction: A
/// strips hold [k/4][MR][4] signed bytes, B strips [k/4][NR][4] bytes
/// biased to unsigned (u8 = s8 + 128, the vpdpbusd operand convention);
/// the +128 offset is corrected by subtracting 128 * rowsum(A) per output
/// row. The scalar fallback computes the identical integer expression, so
/// every dispatch target produces bit-identical int32 accumulators.
///
/// Accumulator range: each output accumulates at most 255 * 127 per k
/// step, so int32 is exact for k < ~66000 — far beyond any conv/fc
/// lowering here (callers must not exceed it).
inline constexpr int64_t kGemmKcInt8 = 4 * kGemmKC;

/// Fused output transform for the int8 kernel, applied on the last K
/// panel. The int32 accumulator dequantizes as
///   y = float(acc) * scale[row] + bias[row]          (then optional ReLU)
/// and is stored either as fp32 into `c`, or — when `c8` is non-null —
/// requantized to int8 (round-to-nearest-even, saturating to +/-127) as
///   c8[row * ldc8 + col] = sat(round(y / out_scale)).
/// `c` is always required: between K panels it holds the raw int32
/// partial sums (bit-cast into the float storage).
struct GemmInt8Epilogue {
  /// Per-row dequant scale of length m (weight_scale[row] * act_scale);
  /// null means 1.0. When the whole epilogue is empty (no scale, bias,
  /// relu, or c8), the raw int32 accumulators are left bit-cast in `c` —
  /// the exact-differential-test mode.
  const float* scale = nullptr;
  /// Per-row fp32 addend of length m, applied after dequantization.
  const float* bias = nullptr;
  /// Applies max(0, y) after the bias add.
  bool relu = false;
  /// Optional requantized int8 output (see above). out_scale <= 0 writes
  /// zeros (the zero-scale guard).
  int8_t* c8 = nullptr;
  int64_t ldc8 = 0;
  float out_scale = 0.0f;
};

/// C (m x n fp32, row stride ldc) = dequant(A_q (m x k int8) * B_q
/// (k x n int8)) with the fused epilogue above. Pack buffers come from
/// `scratch` slots kPackAInt8 / kPackBInt8, so steady-state calls
/// allocate nothing.
void GemmPackedInt8(int64_t m, int64_t n, int64_t k, const int8_t* a,
                    int64_t lda, const int8_t* b, int64_t ldb, float* c,
                    int64_t ldc, const GemmInt8Epilogue& epilogue,
                    KernelScratch* scratch);

/// GemmPackedInt8 with the B operand gathered from `b`'s implicit fp32
/// patch matrix and quantized *during* panel packing: each gathered value
/// is quantized exactly as QuantizeSymmetric (round-to-nearest-even of
/// value / act_scale, saturating; act_scale <= 0 quantizes to zeros) and
/// stored biased to unsigned (+128, the vpdpbusd convention). Int32
/// accumulators are bit-identical to quantizing a materialized expansion
/// and calling GemmPackedInt8 on it, with neither the expansion nor the
/// quantized copy ever written.
void GemmPackedConvInt8(int64_t m, int64_t n, int64_t k, const int8_t* a,
                        int64_t lda, const ConvPatchView& b, float act_scale,
                        float* c, int64_t ldc,
                        const GemmInt8Epilogue& epilogue,
                        KernelScratch* scratch);

/// Cumulative int8 multiply-accumulate ops (2*m*n*k per call,
/// relaxed-atomic) — the int8 twin of GemmFlopsTotal(); see obs gauge
/// "gemm_gops_int8".
int64_t GemmInt8OpsTotal();

/// Name of the int8 micro-kernel selected at startup for this CPU:
/// "avx512vnni", "avxvnni", or "scalar". Surfaced by the benches.
const char* GemmInt8KernelName();

}  // namespace vista

#endif  // VISTA_TENSOR_GEMM_KERNEL_H_
