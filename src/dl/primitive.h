#ifndef VISTA_DL_PRIMITIVE_H_
#define VISTA_DL_PRIMITIVE_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dl/op_spec.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace vista::dl {

/// Numeric precision of a forward pass. kInt8 runs calibrated kConv/kFc
/// primitives on the quantized packed GEMM (tensor/gemm_kernel.h) with
/// fp32 layer boundaries; every other primitive (including kBottleneck,
/// whose interleaved batch norms keep it fp32) is unaffected.
enum class Precision : int {
  kFp32 = 0,
  kInt8 = 1,
};

/// Short stable name for metrics/plan printing: "fp32" / "int8".
const char* PrecisionName(Precision p);

/// Weight initialization schemes for instantiated models.
enum class WeightInit {
  /// He-normal everywhere. Produces generic random-projection features.
  kHe,
  /// He-normal, except the first convolution which gets a bank of Gabor
  /// filters (orientation/frequency selective). This mimics the oriented
  /// edge detectors that ImageNet training produces in early layers and is
  /// the documented stand-in for pretrained weights (DESIGN.md §2).
  kGaborFirstConv,
};

/// An instantiated primitive op: its spec, the input shape it was bound to,
/// and its weight tensors (layout depends on the op kind; see
/// primitive.cc). Shared by the sequential CnnModel and the DagModel.
struct PrimitiveInstance {
  OpSpec spec;
  Shape input_shape;
  std::vector<Tensor> weights;

  /// Int8 lowering state, populated by CnnModel::CalibrateInt8 for kConv
  /// and kFc primitives: the per-output-channel quantized weight tensor
  /// and the calibrated symmetric scale of this primitive's input
  /// activations. ready == false until calibration runs (and again after
  /// SetWeights, which invalidates it).
  struct QuantState {
    QuantizedWeights weights;
    float act_scale = 0.0f;
    bool ready = false;
  };
  QuantState quant;
};

/// Allocates and initializes the weights of `op` for an input of `shape`.
/// `first_conv` tracks whether the model's very first convolution is still
/// pending (consumed by the Gabor initialization); pass the same flag
/// across all of a model's primitives.
Result<PrimitiveInstance> InstantiatePrimitive(const OpSpec& op,
                                               const Shape& shape, Rng* rng,
                                               WeightInit init,
                                               bool* first_conv);

/// Shape of a group of `images` activations of per-image shape `image`,
/// stored channel-major — the layout every primitive runs on: a CHW map
/// becomes (C, images, H, W) and a length-D vector (D, images), so image
/// i's channel c is the contiguous run at (c * images + i) * inner. A
/// group of one holds exactly the single image's values in order.
Shape GroupShape(const Shape& image, int64_t images);

/// Copies `image` (any shape holding one image's values in CHW order) into
/// slot `i` of the channel-major `group`.
void PutImage(const Tensor& image, int64_t i, Tensor* group);

/// Image `i` of the channel-major `group` as a tensor of per-image shape
/// `image`. A group of one is reshaped without copying.
Tensor TakeImage(const Tensor& group, int64_t i, const Shape& image);

/// Executes one primitive on a channel-major group of images (GroupShape;
/// a group of one is the single-image case). The group must hold images of
/// the shape the primitive was instantiated for (an FC also accepts the
/// unflattened map group it follows). Conv and FC primitives run as one
/// packed GEMM over the whole group, with bias and ReLU fused into the
/// epilogue; every other kind applies to the group's buffer. Each image's
/// result is bit-identical whatever group it runs in. Precision::kInt8
/// routes calibrated kConv/kFc primitives through the quantized GEMM
/// (FailedPrecondition if the primitive was never calibrated); other
/// primitive kinds ignore the precision.
Result<Tensor> ApplyPrimitive(const PrimitiveInstance& prim,
                              const Tensor& input,
                              Precision precision = Precision::kFp32);

}  // namespace vista::dl

#endif  // VISTA_DL_PRIMITIVE_H_
