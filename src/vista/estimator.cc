#include "vista/estimator.h"

#include <algorithm>

#include "dl/op_spec.h"
#include "tensor/gemm_kernel.h"

namespace vista {
namespace {

int64_t RoundUpTo(int64_t x, int64_t multiple) {
  return (x + multiple - 1) / multiple * multiple;
}

/// Packed-panel scratch bytes for one GEMM with m = out_channels/groups,
/// n = its columns (images * h_out*w_out for a conv group, images for an
/// FC) and k = c/groups * kernel^2 (in_dim for an FC) — mirroring the
/// Acquire sizes of gemm_kernel.cc's panel drivers (the panels are shared
/// across conv groups, so one group's figure is the conv's).
int64_t ImplicitPanelBytes(int64_t m, int64_t n, int64_t k, bool int8) {
  if (int8) {
    const int64_t kc4 = RoundUpTo(std::min(k, kGemmKcInt8), 4);
    const int64_t pack_b = RoundUpTo(std::min(n, kGemmNC), kGemmNR) * kc4;
    const int64_t pack_a = RoundUpTo(std::min(m, kGemmMC), kGemmMR) * kc4;
    // AcquireBytes rounds byte requests up to whole floats.
    return RoundUpTo(pack_b, 4) + RoundUpTo(pack_a, 4);
  }
  const int64_t kc = std::min(k, kGemmKC);
  const int64_t pack_b = RoundUpTo(std::min(n, kGemmNC), kGemmNR) * kc * 4;
  const int64_t pack_a =
      RoundUpTo(std::min(m, kGemmMC), kGemmMR) * kGemmKC * 4;
  return pack_b + pack_a;
}

/// Scratch bytes for one convolution over `images` (c, h, w) inputs.
int64_t SingleConvTemp(int64_t c, int64_t h, int64_t w, int kernel,
                       int stride, int pad, int groups, int64_t oc,
                       int64_t images, bool int8) {
  if (groups < 1) groups = 1;
  if (kernel < 1 || stride < 1 || c <= 0 || oc <= 0) return 0;
  const int64_t rows = (c / groups) * kernel * kernel;
  const int64_t h_out = (h + 2 * pad - kernel) / stride + 1;
  const int64_t w_out = (w + 2 * pad - kernel) / stride + 1;
  if (h_out <= 0 || w_out <= 0) return 0;
  const int64_t cols = images * h_out * w_out;
  int64_t bytes = ImplicitPanelBytes(oc / groups, cols, rows, int8);
  if (int8) bytes += oc * 4;  // Combined dequant scales (Slot::kScales).
  return bytes;
}

/// Max GEMM scratch across the convs or FC a single op runs over `images`
/// inputs. Bottleneck-internal convs stay fp32 at any workload precision
/// (ApplyPrimitive quantizes only standalone conv/fc primitives).
int64_t OpConvTempBytes(const dl::OpSpec& op, const Shape& in,
                        int64_t images, bool int8) {
  if (op.kind == dl::OpKind::kFc) {
    const int64_t in_dim = in.num_elements();
    int64_t bytes = ImplicitPanelBytes(op.out_channels, images, in_dim, int8);
    // Quantized activations (Slot::kQuantAct) and scales (Slot::kScales).
    if (int8) bytes += RoundUpTo(in_dim * images, 4) + op.out_channels * 4;
    return bytes;
  }
  if (in.rank() != 3) return 0;
  const int64_t c = in.dim(0);
  const int64_t h = in.dim(1);
  const int64_t w = in.dim(2);
  switch (op.kind) {
    case dl::OpKind::kConv:
      return SingleConvTemp(c, h, w, op.kernel, op.stride, op.pad,
                            std::max(1, op.groups), op.out_channels, images,
                            int8);
    case dl::OpKind::kBottleneck: {
      const int64_t mid = op.mid_channels;
      const int64_t out = op.out_channels;
      const int64_t h1 = (h - 1) / op.stride + 1;
      const int64_t w1 = (w - 1) / op.stride + 1;
      int64_t peak = SingleConvTemp(c, h, w, 1, op.stride, 0, 1, mid, images,
                                    /*int8=*/false);
      peak = std::max(peak, SingleConvTemp(mid, h1, w1, 3, 1, 1, 1, mid,
                                           images, /*int8=*/false));
      peak = std::max(peak, SingleConvTemp(mid, h1, w1, 1, 1, 0, 1, out,
                                           images, /*int8=*/false));
      if (op.project) {
        peak = std::max(peak, SingleConvTemp(c, h, w, 1, op.stride, 0, 1,
                                             out, images, /*int8=*/false));
      }
      return peak;
    }
    default:
      return 0;
  }
}

}  // namespace

int64_t ConvTempBytes(const dl::CnnArchitecture& arch, int layer_index,
                      dl::Precision precision) {
  if (layer_index < 0 || layer_index >= arch.num_layers()) return 0;
  Shape in = layer_index == 0 ? arch.input_shape()
                              : arch.layer(layer_index - 1).output_shape;
  const bool int8 = precision == dl::Precision::kInt8;
  const int64_t images = arch.layer(layer_index).group_images;
  int64_t peak = 0;
  for (const dl::OpSpec& op : arch.layer_spec(layer_index).ops) {
    peak = std::max(peak, OpConvTempBytes(op, in, images, int8));
    auto stat = dl::AnalyzeOp(op, in);
    if (!stat.ok()) break;  // Built architectures never hit this.
    in = stat->output_shape;
  }
  return peak;
}

int64_t LayerFeatureBytes(const dl::CnnArchitecture& arch, int layer_index,
                          dl::Precision precision) {
  const int64_t elem_bytes = precision == dl::Precision::kInt8 ? 1 : 4;
  return arch.layer(layer_index).output_shape.num_elements() * elem_bytes;
}

Result<SizeEstimates> EstimateSizes(const RosterEntry& entry,
                                    const TransferWorkload& workload,
                                    const DataStats& stats, double alpha) {
  if (workload.layers.empty()) {
    return Status::InvalidArgument("workload has no layers");
  }
  for (int l : workload.layers) {
    if (l < 0 || l >= entry.arch.num_layers()) {
      return Status::InvalidArgument("layer index out of range: " +
                                     std::to_string(l));
    }
  }
  const int64_t n = stats.num_records;
  SizeEstimates est;

  // Tungsten-style record overheads: 8 B key + 8 B header per
  // variable-length field (Figure 14).
  est.t_str_bytes = n * (8 + 8 + 4 * stats.num_struct_features);
  est.t_img_file_bytes = n * (8 + 8 + stats.avg_image_file_bytes);
  est.t_img_tensor_bytes =
      n * (8 + 8 + entry.arch.input_shape().num_bytes());

  // Features are charged at the workload's inference precision (see
  // LayerFeatureBytes); the record-key and field-header overheads are not.
  int64_t eager_record_payload = 0;
  for (int l : workload.layers) {
    const int64_t feature_bytes =
        LayerFeatureBytes(entry.arch, l, workload.precision);
    const int64_t ti = static_cast<int64_t>(
                           alpha * static_cast<double>(
                                       n * (8 + 8 + feature_bytes))) +
                       est.t_str_bytes;
    est.t_i_bytes.push_back(ti);
    // Serialized: sparse pairs cost 8 B per nonzero; capped by dense.
    const int64_t sparse_bytes = static_cast<int64_t>(
        stats.feature_density * 2.0 * static_cast<double>(feature_bytes));
    const int64_t ser_feature = std::min(feature_bytes, sparse_bytes);
    est.t_i_serialized_bytes.push_back(n * (8 + 8 + ser_feature) +
                                       est.t_str_bytes);
    eager_record_payload += 8 + feature_bytes;
  }
  est.eager_table_bytes =
      static_cast<int64_t>(alpha *
                           static_cast<double>(n * (8 + eager_record_payload))) +
      est.t_str_bytes;

  // Peak UDF (input + output) record buffers across staged hops. These
  // stay fp32 regardless of workload precision: the int8 path keeps layer
  // boundaries (the tensors a UDF holds in flight) in fp32.
  const int64_t img_record = entry.arch.input_shape().num_bytes();
  int64_t peak_udf =
      img_record + LayerFeatureBytes(entry.arch, workload.layers[0]);
  int64_t eager_out = 0;
  for (size_t i = 0; i < workload.layers.size(); ++i) {
    eager_out += LayerFeatureBytes(entry.arch, workload.layers[i]);
    if (i + 1 < workload.layers.size()) {
      peak_udf = std::max(
          peak_udf, LayerFeatureBytes(entry.arch, workload.layers[i]) +
                        LayerFeatureBytes(entry.arch,
                                          workload.layers[i + 1]));
    }
  }
  est.udf_record_bytes = peak_udf;
  est.eager_udf_record_bytes = img_record + eager_out;

  // Eq. 16 Temp term: staged inference runs every logical layer from the
  // image through max(L), so the per-thread conv scratch high-water is the
  // max over that range.
  const int max_layer =
      *std::max_element(workload.layers.begin(), workload.layers.end());
  for (int l = 0; l <= max_layer; ++l) {
    est.conv_temp_bytes = std::max(
        est.conv_temp_bytes, ConvTempBytes(entry.arch, l, workload.precision));
  }

  est.s_single = *std::max_element(est.t_i_bytes.begin(),
                                   est.t_i_bytes.end());
  if (est.t_i_bytes.size() == 1) {
    est.s_double = est.s_single;
  } else {
    int64_t best = 0;
    for (size_t i = 0; i + 1 < est.t_i_bytes.size(); ++i) {
      best = std::max(best, est.t_i_bytes[i] + est.t_i_bytes[i + 1] -
                                est.t_str_bytes);
    }
    est.s_double = best;
  }
  return est;
}

int64_t EstimateModelMemoryBytes(const RosterEntry& entry,
                                 const TransferWorkload& workload,
                                 const DataStats& stats) {
  int64_t max_features = 0;
  for (int l : workload.layers) {
    max_features =
        std::max(max_features, entry.arch.transfer_feature_count(l));
  }
  const int64_t dim = stats.num_struct_features + max_features;
  switch (workload.model) {
    case DownstreamModel::kLogisticRegression:
      // Weights + gradient accumulators + optimizer scratch (double
      // precision).
      return dim * 8 * 3 + kMiB;
    case DownstreamModel::kMlp: {
      // Paper's Fig. 7(B) MLP: two 1024-unit hidden layers.
      const int64_t params = dim * 1024 + 1024 * 1024 + 1024;
      return params * 8 * 3 + kMiB;
    }
    case DownstreamModel::kDecisionTree:
      // Histograms per feature dominate.
      return dim * 256 + kMiB;
  }
  return kMiB;
}

}  // namespace vista
