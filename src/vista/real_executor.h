#ifndef VISTA_VISTA_REAL_EXECUTOR_H_
#define VISTA_VISTA_REAL_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "dl/cnn.h"
#include "obs/trace.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "vista/plans.h"
#include "vista/roster.h"

namespace vista {

/// Physical choices for a real (in-process) execution.
struct RealExecutorConfig {
  df::JoinStrategy join = df::JoinStrategy::kShuffleHash;
  df::PersistenceFormat persistence = df::PersistenceFormat::kDeserialized;
  int num_partitions = 8;
  /// Grid for the paper's conv-layer max pooling g_l (footnote 4).
  int pooling_grid = 2;
  /// Held-out fraction for test metrics (paper: 20%).
  double test_fraction = 0.2;
  /// Train downstream models and compute test metrics. Disable to measure
  /// pure materialization pipelines.
  bool train_models = true;
  ml::LogisticRegressionConfig lr;
  ml::MlpConfig mlp;
  ml::DecisionTreeConfig tree;
  /// Driver collect budget (-1 = unlimited).
  int64_t driver_memory_bytes = -1;
  /// Inference precision for every kInference step this executor runs.
  /// kInt8 routes conv/fc primitives through the quantized GEMM kernel and
  /// materializes features that are exactly 1/4 the fp32 bytes; it requires
  /// the model to have been calibrated (CnnModel::CalibrateInt8) — the
  /// model-aware Validate overload rejects the combination otherwise. Must
  /// match the precision the plan was compiled for (CompiledPlan::precision).
  dl::Precision precision = dl::Precision::kFp32;
  /// Read-ahead distance for spilled partitions, driving the engine's
  /// prefetch plane (the read-side mirror of the async spill writer):
  ///   0  — disabled (the default): every read is synchronous, exactly the
  ///        pre-prefetch executor.
  ///  -1  — compute-aware: each inference step picks its own depth from
  ///        the layer range's FLOPs-per-byte intensity (the same per-layer
  ///        FLOP figures metered into the "dl.flops.*" counters) — deeper
  ///        read-ahead for compute-heavy layers, a single double-buffered
  ///        block for I/O-bound stages — clamped so the buffered bytes
  ///        never exceed the Storage region's current headroom. See
  ///        ChoosePrefetchDepth.
  ///  >0  — fixed depth for every read-driven op.
  /// Any setting also enables next-step input prefetch between plan steps
  /// (the layer pipeline: step k's compute overlaps step k+1's reads).
  /// Results are bit-identical at every depth; only wall-clock changes.
  int prefetch_depth = 0;
  /// When a run fails with ResourceExhausted, automatically step the
  /// physical plan down the degradation ladder and re-run instead of
  /// surfacing the crash:
  ///   1. persistence: deserialized -> serialized (smaller Storage footprint)
  ///   2. join: broadcast -> shuffle (no replicated build table in Core)
  ///   3. logical plan: Lazy/Eager/... -> Staged (one layer live at a time)
  /// Steps taken are recorded in RealRunResult::degradations. This is the
  /// paper's reliability claim (Section 4.4, Figure 11) — "Vista never
  /// crashes where manual configs do" — as an executable behavior.
  bool auto_degrade = false;

  /// Rejects nonsensical configurations (zero partitions, out-of-range
  /// fractions or enums, non-positive training hyper-parameters,
  /// driver/memory budgets below the -1 "unlimited" sentinel) with
  /// InvalidArgument before they become undefined behavior downstream.
  /// Every executor entry point validates; long-running services validate
  /// once at construction.
  Status Validate() const;

  /// Model-aware validation: everything Validate() checks, plus precision
  /// combinations that are only decidable against the model — int8 with a
  /// model that has no calibration is rejected with a Status that names the
  /// fix (CnnModel::CalibrateInt8). Null `model` degrades to Validate().
  Status Validate(const dl::CnnModel* model) const;
};

/// Per-layer outcome of a feature-transfer run.
struct LayerRunResult {
  int layer_index = -1;
  std::string layer_name;
  double train_seconds = 0;
  ml::BinaryMetrics test_metrics;
  double test_f1 = 0;
};

/// Outcome of executing a compiled plan end to end. Dataflow counts
/// (spills, retries, bytes moved, integrity outcomes) are not copied here:
/// read them from the engine's registry or from Engine::stats().
struct RealRunResult {
  std::vector<LayerRunResult> per_layer;
  double total_seconds = 0;
  /// Sum of CNN FLOPs actually executed (quantifies Lazy's redundancy).
  int64_t inference_flops = 0;
  /// Of those, the ops executed on the quantized int8 kernel (conv/fc
  /// primitives when the run's precision is int8; 0 for fp32 runs). With
  /// profiling enabled, the per-layer breakdown accrues into the
  /// "dl.int8_ops.*" counters.
  int64_t inference_int8_ops = 0;
  /// Degradation-ladder steps taken before the run completed (empty for a
  /// clean first-attempt run), e.g. "persistence: deserialized -> serialized".
  std::vector<std::string> degradations;
  /// Wall seconds per pipeline stage ("read", "join", "inference",
  /// "persistence", "train"), aggregated from the stage spans below — the
  /// paper's Table 3 drill-down measured on the real executor.
  std::map<std::string, double> stage_seconds;
  /// Trace spans recorded during this run (the successful attempt only,
  /// when auto-degradation re-ran the plan). Feed to obs::ProfileJson or
  /// obs::ChromeTraceJson to export.
  std::vector<obs::Span> spans;
};

/// Executes compiled plans on the local dataflow engine with a real CNN —
/// the Spark-TF role. Feature outputs are bit-identical across logical
/// plans (the paper's Section 5.2 invariant), which the test suite checks.
class RealExecutor {
 public:
  /// `engine`, `model` must outlive the executor. `arch_for_flops` is the
  /// architecture used for FLOP accounting (the model's own arch).
  RealExecutor(df::Engine* engine, const dl::CnnModel* model);

  /// Runs `plan` over the two base tables. `t_img` must carry raw images,
  /// unless the plan was compiled with a pre-materialized base, in which
  /// case it must carry the base layer's tensors in TensorList slot 0.
  Result<RealRunResult> Run(const CompiledPlan& plan,
                            const TransferWorkload& workload,
                            const df::Table& t_str, const df::Table& t_img,
                            const RealExecutorConfig& config);

  /// Appendix B helper: materializes the bottom-most layer of `workload`
  /// from raw images into a table carrying that layer in slot 0.
  Result<df::Table> PreMaterializeBase(const TransferWorkload& workload,
                                       const df::Table& t_img,
                                       const RealExecutorConfig& config);

  /// Materializes `target_layer` into TensorList slot 0 of a new table:
  /// from raw images when `source_layer` < 0 (then `source_slot` is
  /// ignored), otherwise resuming partial inference from `input`'s slot
  /// `source_slot`, which must carry `source_layer`'s tensors. Passing
  /// target_layer == source_layer copies the source slot through without
  /// compute. This is the serving plane's resume primitive: a cached
  /// f̂_{1→l} view satisfies any query whose base layer l' >= l by running
  /// only f̂_{l→l'}. Per-record FLOPs actually executed accrue into
  /// `*flops`.
  Result<df::Table> MaterializeLayer(const df::Table& input, int source_slot,
                                     int source_layer, int target_layer,
                                     const RealExecutorConfig& config,
                                     int64_t* flops);

 private:
  struct TableState {
    df::Table table;
    /// Layer index carried in each TensorList slot.
    std::vector<int> slots;
    bool persisted = false;
  };

  /// One attempt at the plan (no degradation). Any table still persisted
  /// when the attempt ends — success or failure — is unpersisted, so a
  /// degraded re-run starts from clean engine storage.
  Result<RealRunResult> RunOnce(const CompiledPlan& plan,
                                const TransferWorkload& workload,
                                const df::Table& t_str,
                                const df::Table& t_img,
                                const RealExecutorConfig& config);

  /// Executes the plan's steps into `tables`/`run`.
  Status RunSteps(const CompiledPlan& plan, const TransferWorkload& workload,
                  const df::Table& t_str, const df::Table& t_img,
                  const RealExecutorConfig& config,
                  std::map<std::string, TableState>* tables,
                  RealRunResult* run);

  /// Runs one inference step over `input`, producing the requested layers.
  /// FLOPs executed accrue into `*flops`; the subset run on the quantized
  /// int8 kernel (0 under fp32) accrues into `*int8_ops`.
  Result<df::Table> RunInference(const PlanStep& step, const df::Table& input,
                                 const RealExecutorConfig& config,
                                 int64_t* flops, int64_t* int8_ops);

  Result<LayerRunResult> RunTrain(const PlanStep& step,
                                  const TransferWorkload& workload,
                                  const df::Table& input,
                                  const RealExecutorConfig& config);

  df::Engine* engine_;
  const dl::CnnModel* model_;
};

/// The feature extractor used for downstream training: label is
/// struct_features[0], features are [struct_features[1..], g(slot tensor)],
/// written into the caller's `x` (dl::AppendTransferFeatures), so a pass
/// that reuses `x` allocates nothing after its first record.
ml::FeatureExtractor MakeTransferExtractor(int feature_slot,
                                           int pooling_grid);

/// Compute-aware read-ahead distance for one inference step. Pure
/// arithmetic so tests can pin the policy:
///  - intensity = partition_flops / partition_bytes (FLOPs the step runs
///    per byte it must read). >= 512 FLOPs/B -> depth 4 (GEMM-bound: the
///    reader can run far ahead), >= 64 -> 2, else 1 (I/O-bound: classic
///    double buffering — one block ahead matches the transient footprint
///    the sync path already needs, so auto mode never goes below 1).
///  - clamped so depth * partition_bytes stays within
///    `storage_headroom_bytes` (never over-buffer past the MemoryManager
///    budget), and by `max_depth` (the engine's prefetch queue capacity).
int ChoosePrefetchDepth(int64_t partition_flops, int64_t partition_bytes,
                        int64_t storage_headroom_bytes, int max_depth);

}  // namespace vista

#endif  // VISTA_VISTA_REAL_EXECUTOR_H_
