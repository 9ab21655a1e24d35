#include "dl/dag.h"

#include <algorithm>
#include <set>

#include "tensor/ops.h"

namespace vista::dl {
namespace {

/// Shape of merged inputs, with compatibility validation.
Result<Shape> MergedShape(const std::vector<Shape>& shapes, MergeOp merge,
                          const std::string& node_name) {
  if (shapes.empty()) {
    return Status::Internal("MergedShape with no inputs");
  }
  if (shapes.size() == 1) return shapes[0];
  if (merge == MergeOp::kNone) {
    return Status::InvalidArgument("node '" + node_name +
                                   "' has multiple inputs but no merge op");
  }
  if (merge == MergeOp::kAdd) {
    for (size_t i = 1; i < shapes.size(); ++i) {
      if (shapes[i] != shapes[0]) {
        return Status::InvalidArgument(
            "node '" + node_name + "': add-merge shape mismatch " +
            shapes[0].ToString() + " vs " + shapes[i].ToString());
      }
    }
    return shapes[0];
  }
  // Concat.
  if (shapes[0].rank() == 3) {
    int64_t channels = 0;
    for (const Shape& s : shapes) {
      if (s.rank() != 3 || s.dim(1) != shapes[0].dim(1) ||
          s.dim(2) != shapes[0].dim(2)) {
        return Status::InvalidArgument(
            "node '" + node_name +
            "': concat-merge needs CHW inputs with equal H,W");
      }
      channels += s.dim(0);
    }
    return Shape{channels, shapes[0].dim(1), shapes[0].dim(2)};
  }
  int64_t length = 0;
  for (const Shape& s : shapes) {
    if (s.rank() != 1) {
      return Status::InvalidArgument(
          "node '" + node_name + "': concat-merge of mixed ranks");
    }
    length += s.dim(0);
  }
  return Shape{length};
}

/// Merges input tensors per the merge op (shapes pre-validated).
Result<Tensor> MergeTensors(const std::vector<Tensor>& inputs, MergeOp merge,
                            const Shape& merged_shape) {
  if (inputs.size() == 1) return inputs[0];
  if (merge == MergeOp::kAdd) {
    Tensor out = inputs[0].Clone();
    for (size_t i = 1; i < inputs.size(); ++i) {
      VISTA_ASSIGN_OR_RETURN(out, Add(out, inputs[i]));
    }
    return out;
  }
  // Concat: channel-major layout makes CHW channel concatenation (and
  // vector concatenation) a flat copy in input order.
  Tensor out(merged_shape);
  float* dst = out.mutable_data();
  int64_t at = 0;
  for (const Tensor& t : inputs) {
    std::copy(t.data(), t.data() + t.num_elements(), dst + at);
    at += t.num_elements();
  }
  return out;
}

}  // namespace

const char* MergeOpToString(MergeOp merge) {
  switch (merge) {
    case MergeOp::kNone:
      return "none";
    case MergeOp::kConcat:
      return "concat";
    case MergeOp::kAdd:
      return "add";
  }
  return "?";
}

Result<DagArchitecture> DagArchitecture::Create(
    std::string name, Shape input_shape, std::vector<DagNodeSpec> nodes) {
  if (nodes.empty()) {
    return Status::InvalidArgument("DAG '" + name + "' has no nodes");
  }
  DagArchitecture arch;
  arch.name_ = std::move(name);
  arch.input_shape_ = std::move(input_shape);
  arch.consumers_.resize(nodes.size());

  for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
    const DagNodeSpec& spec = nodes[i];
    if (spec.name.empty()) {
      return Status::InvalidArgument("DAG node " + std::to_string(i) +
                                     " has no name");
    }
    for (int j = 0; j < i; ++j) {
      if (nodes[j].name == spec.name) {
        return Status::InvalidArgument("duplicate DAG node name '" +
                                       spec.name + "'");
      }
    }
    std::vector<Shape> input_shapes;
    if (spec.inputs.empty()) {
      input_shapes.push_back(arch.input_shape_);
    } else {
      for (int input : spec.inputs) {
        if (input < 0 || input >= i) {
          return Status::InvalidArgument(
              "node '" + spec.name + "' references node " +
              std::to_string(input) +
              " which is not an earlier node (topological order required)");
        }
        input_shapes.push_back(arch.stats_[input].output_shape);
        arch.consumers_[input].push_back(i);
      }
    }
    VISTA_ASSIGN_OR_RETURN(Shape shape,
                           MergedShape(input_shapes, spec.merge, spec.name));
    DagNodeStat stat;
    stat.name = spec.name;
    if (spec.merge == MergeOp::kAdd && spec.inputs.size() > 1) {
      stat.flops += shape.num_elements() *
                    static_cast<int64_t>(spec.inputs.size() - 1);
    }
    for (OpSpec op : spec.ops) {
      if (op.kind == OpKind::kFc && shape.rank() != 1) {
        shape = Shape{shape.num_elements()};
      }
      VISTA_ASSIGN_OR_RETURN(OpStat op_stat, AnalyzeOp(op, shape));
      stat.flops += op_stat.flops;
      stat.param_count += op_stat.param_count;
      shape = op_stat.output_shape;
    }
    stat.output_shape = shape;
    stat.convolutional = shape.rank() == 3;
    arch.stats_.push_back(std::move(stat));
    arch.specs_.push_back(spec);
  }
  return arch;
}

Result<int> DagArchitecture::FindNode(const std::string& name) const {
  for (int i = 0; i < num_nodes(); ++i) {
    if (stats_[i].name == name) return i;
  }
  return Status::NotFound("no DAG node named '" + name + "' in " + name_);
}

int64_t DagArchitecture::total_params() const {
  int64_t n = 0;
  for (const auto& s : stats_) n += s.param_count;
  return n;
}

std::vector<int> DagArchitecture::Ancestors(int node) const {
  std::set<int> seen;
  std::vector<int> frontier = specs_[node].inputs;
  while (!frontier.empty()) {
    const int n = frontier.back();
    frontier.pop_back();
    if (!seen.insert(n).second) continue;
    for (int input : specs_[n].inputs) frontier.push_back(input);
  }
  return std::vector<int>(seen.begin(), seen.end());
}

Result<DagModel> DagModel::Instantiate(const DagArchitecture& arch,
                                       uint64_t seed, WeightInit init) {
  DagModel model;
  model.arch_ = std::make_shared<DagArchitecture>(arch);
  Rng rng(seed);
  bool first_conv = true;
  for (int i = 0; i < arch.num_nodes(); ++i) {
    const DagNodeSpec& spec = arch.node_spec(i);
    std::vector<Shape> input_shapes;
    if (spec.inputs.empty()) {
      input_shapes.push_back(arch.input_shape());
    } else {
      for (int input : spec.inputs) {
        input_shapes.push_back(arch.node(input).output_shape);
      }
    }
    VISTA_ASSIGN_OR_RETURN(Shape shape,
                           MergedShape(input_shapes, spec.merge, spec.name));
    NodeInstance node;
    for (OpSpec op : spec.ops) {
      if (op.kind == OpKind::kFc && shape.rank() != 1) {
        shape = Shape{shape.num_elements()};
      }
      VISTA_ASSIGN_OR_RETURN(
          PrimitiveInstance prim,
          InstantiatePrimitive(op, shape, &rng, init, &first_conv));
      VISTA_ASSIGN_OR_RETURN(OpStat stat, AnalyzeOp(op, shape));
      shape = stat.output_shape;
      node.primitives.push_back(std::move(prim));
    }
    model.nodes_.push_back(std::move(node));
  }
  return model;
}

Result<Tensor> DagModel::EvalNode(int node,
                                  std::map<int, Tensor>* memo) const {
  auto it = memo->find(node);
  if (it != memo->end()) return it->second;
  const DagNodeSpec& spec = arch_->node_spec(node);

  std::vector<Tensor> inputs;
  if (spec.inputs.empty()) {
    auto raw = memo->find(kRawInput);
    if (raw == memo->end()) {
      return Status::FailedPrecondition(
          "node '" + spec.name +
          "' needs the raw input, which is not available");
    }
    inputs.push_back(raw->second);
  } else {
    for (int input : spec.inputs) {
      VISTA_ASSIGN_OR_RETURN(Tensor value, EvalNode(input, memo));
      inputs.push_back(std::move(value));
    }
  }
  std::vector<Shape> shapes;
  for (const Tensor& t : inputs) shapes.push_back(t.shape());
  VISTA_ASSIGN_OR_RETURN(Shape merged_shape,
                         MergedShape(shapes, spec.merge, spec.name));
  VISTA_ASSIGN_OR_RETURN(Tensor merged,
                         MergeTensors(inputs, spec.merge, merged_shape));
  // One input is a group of one, as in CnnModel::RunRange.
  Tensor group = merged.Reshape(GroupShape(merged_shape, 1));
  for (const PrimitiveInstance& prim : nodes_[node].primitives) {
    VISTA_ASSIGN_OR_RETURN(group, ApplyPrimitive(prim, group));
  }
  const Tensor value = group.Reshape(arch_->node(node).output_shape);
  memo->emplace(node, value);
  return value;
}

Result<std::map<int, Tensor>> DagModel::Compute(
    const std::map<int, Tensor>& available,
    const std::vector<int>& targets) const {
  std::map<int, Tensor> memo = available;
  std::map<int, Tensor> out;
  for (int target : targets) {
    if (target < 0 || target >= arch_->num_nodes()) {
      return Status::InvalidArgument("bad DAG target index " +
                                     std::to_string(target));
    }
    VISTA_ASSIGN_OR_RETURN(Tensor value, EvalNode(target, &memo));
    out.emplace(target, std::move(value));
  }
  return out;
}

Result<Tensor> DagModel::ComputeFromInput(const Tensor& input,
                                          int target) const {
  std::map<int, Tensor> available;
  available.emplace(kRawInput, input);
  VISTA_ASSIGN_OR_RETURN(auto values, Compute(available, {target}));
  return values.at(target);
}

Result<DagStagedPlan> PlanStagedDag(const DagArchitecture& arch,
                                    std::vector<int> targets) {
  if (targets.empty()) {
    return Status::InvalidArgument("no target nodes");
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (int t : targets) {
    if (t < 0 || t >= arch.num_nodes()) {
      return Status::InvalidArgument("bad DAG target index " +
                                     std::to_string(t));
    }
  }

  // Everything transitively needed by any target.
  std::set<int> needed(targets.begin(), targets.end());
  for (int t : targets) {
    for (int a : arch.Ancestors(t)) needed.insert(a);
  }

  DagStagedPlan plan;
  std::set<int> computed;
  for (int target : targets) {
    DagStagedHop hop;
    hop.target = target;
    // Compute every not-yet-computed needed ancestor of this target, plus
    // the target itself, in topological (index) order.
    const std::vector<int> ancestors = arch.Ancestors(target);
    std::set<int> want(ancestors.begin(), ancestors.end());
    want.insert(target);
    for (int n : want) {
      if (needed.count(n) > 0 && computed.count(n) == 0) {
        hop.compute_nodes.push_back(n);
        plan.total_flops += arch.node(n).flops;
      }
    }
    for (int n : hop.compute_nodes) computed.insert(n);

    // Frontier: computed nodes with at least one needed, not-yet-computed
    // consumer.
    bool raw_still_needed = false;
    for (int n : needed) {
      if (computed.count(n) == 0 && arch.node_spec(n).inputs.empty()) {
        raw_still_needed = true;
      }
      // Nodes whose ancestors include a raw-input node that is not yet
      // computed also keep the raw input alive transitively; covered by
      // the check above because that raw-consuming ancestor is in `needed`.
    }
    for (int n : computed) {
      bool has_open_consumer = false;
      for (int consumer : arch.consumers(n)) {
        if (needed.count(consumer) > 0 && computed.count(consumer) == 0) {
          has_open_consumer = true;
          break;
        }
      }
      if (has_open_consumer) hop.keep_after.push_back(n);
    }
    hop.keep_bytes = raw_still_needed ? arch.input_shape().num_bytes() : 0;
    for (int n : hop.keep_after) {
      hop.keep_bytes += arch.node(n).output_shape.num_bytes();
    }
    plan.peak_keep_bytes = std::max(plan.peak_keep_bytes, hop.keep_bytes);
    plan.hops.push_back(std::move(hop));
  }
  return plan;
}

Result<DagArchitecture> MicroDenseNetDag() {
  auto conv = [](int64_t filters, int kernel, int stride, int pad) {
    OpSpec op;
    op.kind = OpKind::kConv;
    op.out_channels = filters;
    op.kernel = kernel;
    op.stride = stride;
    op.pad = pad;
    op.relu = true;
    return op;
  };
  OpSpec pool;
  pool.kind = OpKind::kMaxPool;
  pool.window = 2;
  pool.stride = 2;
  OpSpec gap;
  gap.kind = OpKind::kGlobalAvgPool;
  OpSpec fc;
  fc.kind = OpKind::kFc;
  fc.out_channels = 16;
  fc.relu = false;

  std::vector<DagNodeSpec> nodes;
  // Stem: raw input -> 8x16x16.
  nodes.push_back({"stem", {}, MergeOp::kNone, {conv(8, 3, 1, 1), pool}});
  // Dense block: each node sees the concatenation of all previous outputs.
  nodes.push_back({"dense1", {0}, MergeOp::kNone, {conv(8, 3, 1, 1)}});
  nodes.push_back({"dense2", {0, 1}, MergeOp::kConcat, {conv(8, 3, 1, 1)}});
  nodes.push_back(
      {"dense3", {0, 1, 2}, MergeOp::kConcat, {conv(8, 3, 1, 1)}});
  // Transition + head.
  nodes.push_back(
      {"transition", {0, 1, 2, 3}, MergeOp::kConcat, {conv(16, 1, 1, 0),
                                                      pool}});
  nodes.push_back({"head", {4}, MergeOp::kNone, {gap, fc}});
  return DagArchitecture::Create("MicroDenseNet", Shape{3, 32, 32},
                                 std::move(nodes));
}

Result<DagArchitecture> MicroSkipEncoderDag() {
  auto fc = [](int64_t units, bool relu) {
    OpSpec op;
    op.kind = OpKind::kFc;
    op.out_channels = units;
    op.relu = relu;
    return op;
  };
  std::vector<DagNodeSpec> nodes;
  nodes.push_back({"embed", {}, MergeOp::kNone, {fc(32, true)}});
  nodes.push_back({"enc1", {0}, MergeOp::kNone, {fc(32, true)}});
  nodes.push_back({"enc2", {1}, MergeOp::kNone, {fc(32, true)}});
  nodes.push_back({"enc3", {2}, MergeOp::kNone, {fc(32, true)}});
  // Aggregated feature layers, each depending on multiple encoder levels
  // (the BERT-style case of Section 5.4).
  nodes.push_back({"agg12", {1, 2}, MergeOp::kAdd, {}});
  nodes.push_back({"agg123", {1, 2, 3}, MergeOp::kAdd, {}});
  nodes.push_back({"cls", {3}, MergeOp::kNone, {fc(8, false)}});
  return DagArchitecture::Create("MicroSkipEncoder", Shape{48},
                                 std::move(nodes));
}

}  // namespace vista::dl
