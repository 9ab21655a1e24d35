#ifndef VISTA_DL_DAG_H_
#define VISTA_DL_DAG_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "dl/cnn.h"
#include "dl/primitive.h"

namespace vista::dl {

/// DAG-structured feature-transfer models — the extension the paper leaves
/// to future work (Section 5.4): "a feature layer in BERT depends on
/// multiple input layers and supporting it requires generalizing our staged
/// materialization plan to support arbitrary DAG architectures". This
/// module provides (1) a validated DAG architecture with per-node
/// statistics, (2) a runnable DagModel with partial inference from any
/// materialized frontier, and (3) PlanStagedDag — the generalized staged
/// materialization plan that never recomputes a node and keeps the minimal
/// frontier alive between hops.

/// How a node with multiple inputs combines them before applying its ops.
enum class MergeOp {
  /// Single (or raw) input; no merging.
  kNone,
  /// Channel-wise concatenation for CHW inputs (equal H and W), element
  /// concatenation for vectors — DenseNet-style aggregation.
  kConcat,
  /// Element-wise addition (equal shapes) — residual/BERT-style
  /// aggregation.
  kAdd,
};

const char* MergeOpToString(MergeOp merge);

/// One logical node of the DAG: where its inputs come from, how they merge,
/// and the primitive ops applied to the merged tensor. An empty `inputs`
/// list means the node consumes the raw model input.
struct DagNodeSpec {
  std::string name;
  std::vector<int> inputs;
  MergeOp merge = MergeOp::kNone;
  std::vector<OpSpec> ops;
};

/// Analytic statistics of a DAG node.
struct DagNodeStat {
  std::string name;
  Shape output_shape;
  int64_t flops = 0;
  int64_t param_count = 0;
  bool convolutional = false;
};

/// A validated DAG of logical layers. Nodes are stored in topological
/// order (every input index is smaller than the node's own index).
class DagArchitecture {
 public:
  /// Validates the node list (topological references, merge/shape
  /// compatibility) and computes all statistics.
  static Result<DagArchitecture> Create(std::string name, Shape input_shape,
                                        std::vector<DagNodeSpec> nodes);

  const std::string& name() const { return name_; }
  const Shape& input_shape() const { return input_shape_; }
  int num_nodes() const { return static_cast<int>(stats_.size()); }
  const DagNodeStat& node(int i) const { return stats_[i]; }
  const DagNodeSpec& node_spec(int i) const { return specs_[i]; }
  /// Nodes that consume node i's output.
  const std::vector<int>& consumers(int i) const { return consumers_[i]; }

  Result<int> FindNode(const std::string& name) const;
  int64_t total_params() const;

  /// All ancestors of `node` (nodes whose outputs are transitively needed),
  /// excluding `node` itself, ascending.
  std::vector<int> Ancestors(int node) const;

 private:
  std::string name_;
  Shape input_shape_;
  std::vector<DagNodeSpec> specs_;
  std::vector<DagNodeStat> stats_;
  std::vector<std::vector<int>> consumers_;
};

/// An instantiated, runnable DAG model.
class DagModel {
 public:
  static Result<DagModel> Instantiate(const DagArchitecture& arch,
                                      uint64_t seed,
                                      WeightInit init = WeightInit::kHe);

  const DagArchitecture& arch() const { return *arch_; }

  /// Partial DAG inference: computes the outputs of every node in
  /// `targets`, reusing the tensors in `available` (node index -> output;
  /// the raw input goes under index kRawInput). Only the missing part of
  /// the DAG is evaluated. Fails (FailedPrecondition) if a required value
  /// can be reached neither from `available` nor from the raw input.
  /// Nodes are evaluated in dependency order, each as a group of one image
  /// (dl/primitive.h).
  static constexpr int kRawInput = -1;
  Result<std::map<int, Tensor>> Compute(const std::map<int, Tensor>& available,
                                        const std::vector<int>& targets) const;

  /// Convenience: full inference of one node from the raw input.
  Result<Tensor> ComputeFromInput(const Tensor& input, int target) const;

 private:
  struct NodeInstance {
    std::vector<PrimitiveInstance> primitives;
  };

  Result<Tensor> EvalNode(int node, std::map<int, Tensor>* memo) const;

  std::shared_ptr<const DagArchitecture> arch_;
  std::vector<NodeInstance> nodes_;
};

/// One hop of the generalized staged plan: materialize `target`, computing
/// exactly `compute_nodes` (none of which was computed before), then retain
/// only `keep_after` for later hops.
struct DagStagedHop {
  int target = -1;
  std::vector<int> compute_nodes;
  std::vector<int> keep_after;
  /// Per-record bytes of the retained frontier after this hop (includes
  /// the raw input while any un-computed node still needs it).
  int64_t keep_bytes = 0;
};

/// The generalized staged materialization plan for a set of target feature
/// nodes: hops in topological target order; no node is ever computed twice;
/// the frontier retained between hops is the minimal set whose consumers
/// are not all finished.
struct DagStagedPlan {
  std::vector<DagStagedHop> hops;
  int64_t peak_keep_bytes = 0;
  /// Total FLOPs per record (equals computing every needed node once).
  int64_t total_flops = 0;
};

Result<DagStagedPlan> PlanStagedDag(const DagArchitecture& arch,
                                    std::vector<int> targets);

/// A runnable DenseNet-flavored DAG (dense connectivity within a block) for
/// tests and examples, over 3x32x32 inputs.
Result<DagArchitecture> MicroDenseNetDag();

/// A BERT-flavored encoder stack sketch: fc blocks with additive skip
/// aggregation, whose top "feature layers" each depend on multiple lower
/// layers (Section 5.4's motivating case). Input is a flattened embedding.
Result<DagArchitecture> MicroSkipEncoderDag();

}  // namespace vista::dl

#endif  // VISTA_DL_DAG_H_
