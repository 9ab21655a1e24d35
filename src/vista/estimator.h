#ifndef VISTA_VISTA_ESTIMATOR_H_
#define VISTA_VISTA_ESTIMATOR_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "vista/roster.h"

namespace vista {

/// The cluster environment handed to Vista (Table 1(A)).
struct SystemEnv {
  int num_nodes = 8;
  int64_t node_memory_bytes = GiB(32);
  int cores_per_node = 8;
  /// GPU memory per node; 0 when the cluster has no GPUs.
  int64_t gpu_memory_bytes = 0;
};

/// Intermediate-table size estimates (Appendix A, Eq. 16). All sizes are
/// cluster totals in bytes.
struct SizeEstimates {
  /// Base tables.
  int64_t t_str_bytes = 0;
  /// Raw images as stored (compressed files on distributed storage).
  int64_t t_img_file_bytes = 0;
  /// Raw images decoded into tensors (what inference reads).
  int64_t t_img_tensor_bytes = 0;
  /// Deserialized size of each intermediate table T_i (i indexes the
  /// workload's layer list L, ascending). T_i carries the full feature
  /// tensor of layer L[i] plus the joined structured features.
  std::vector<int64_t> t_i_bytes;
  /// Serialized/compressed size of each T_i (density-scaled sparse
  /// encoding).
  std::vector<int64_t> t_i_serialized_bytes;
  /// Eager's single materialized table holding every layer of L at once.
  int64_t eager_table_bytes = 0;
  /// Peak single-table and adjacent-pair sizes (Eqs. 5-6).
  int64_t s_single = 0;
  int64_t s_double = 0;
  /// Peak per-record UDF buffer bytes during staged execution: the largest
  /// (input tensor + produced tensor) pair across inference hops, counting
  /// the decoded image for the first hop. Drives the User-memory term of
  /// Eq. 10 ("buffers to read inputs, and to hold features created by CNN
  /// inference") and the partitioning rule.
  int64_t udf_record_bytes = 0;
  /// Same for the Eager plan (image input + every layer's output at once).
  int64_t eager_udf_record_bytes = 0;
  /// Eq. 16 Temp term: per-thread kernel-scratch high-water across every
  /// logical layer the staged inference runs (0 .. max(L)) at the
  /// workload's precision — the packed GEMM panels of the implicit-GEMM
  /// conv and packed FC paths at each layer's group size. Multiply by the
  /// thread count for a per-node figure.
  int64_t conv_temp_bytes = 0;
};

/// Fudge factor for the blowup of binary feature vectors as managed-heap
/// objects (Table 1(C), default 2).
inline constexpr double kDefaultAlpha = 2.0;

/// Computes all size estimates for running `workload` over data with
/// `stats` (Eq. 16 with fudge factor `alpha`).
Result<SizeEstimates> EstimateSizes(const RosterEntry& entry,
                                    const TransferWorkload& workload,
                                    const DataStats& stats,
                                    double alpha = kDefaultAlpha);

/// Per-record bytes of the full feature tensor of `layer_index` at the
/// given inference precision: 4 bytes/element for fp32 and 1 byte/element
/// for int8. The int8 figure assumes feature layers stored as int8; the
/// executor still stores them as fp32 (see ROADMAP.md, "Store int8 feature
/// layers as int8"), so at int8 this undercounts materialized tables 4x.
int64_t LayerFeatureBytes(const dl::CnnArchitecture& arch, int layer_index,
                          dl::Precision precision = dl::Precision::kFp32);

/// Per-thread scratch (Temp-region) bytes the packed-GEMM kernels need to
/// run logical layer `layer_index` over one group of its
/// LayerStat::group_images images (batch-major inference): the maximum
/// over the layer's conv and FC ops (including bottleneck-internal convs,
/// which stay fp32 at any workload precision) of the packed A + packed B
/// panel footprint for that many columns, plus the int8 scales and
/// quantized FC activations, sized exactly as gemm.cc and gemm_kernel.cc
/// acquire them. Layers without a conv or FC return 0.
int64_t ConvTempBytes(const dl::CnnArchitecture& arch, int layer_index,
                      dl::Precision precision = dl::Precision::kFp32);

/// Downstream-model memory footprint |M|_mem: proportional to the total
/// feature dimensionality (structured + the largest pooled CNN layer in L),
/// Section 4.3.
int64_t EstimateModelMemoryBytes(const RosterEntry& entry,
                                 const TransferWorkload& workload,
                                 const DataStats& stats);

}  // namespace vista

#endif  // VISTA_VISTA_ESTIMATOR_H_
