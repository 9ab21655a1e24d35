// Feature transfer from a DAG-structured model — the paper's Section 5.4
// future-work case (DenseNet-style dense connectivity, BERT-style
// aggregated feature layers). Demonstrates the generalized staged
// materialization plan: explore several DAG feature nodes with no
// recomputation and a provably bounded frontier, then train a downstream
// model per node and report F1.
//
// Build & run:  ./build/examples/dag_feature_transfer

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/bytes.h"
#include "dl/dag.h"
#include "features/synthetic.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"

int main() {
  using namespace vista;
  using dl::DagModel;

  auto arch = dl::MicroDenseNetDag();
  if (!arch.ok()) return 1;
  std::printf("DAG: %s, %d nodes, %lld params\n", arch->name().c_str(),
              arch->num_nodes(),
              static_cast<long long>(arch->total_params()));

  // Explore three feature nodes: dense2, the transition, and the head.
  const std::vector<int> targets = {2, 4, 5};
  auto plan = dl::PlanStagedDag(*arch, targets);
  if (!plan.ok()) return 1;
  std::printf("Generalized staged plan (%zu hops, peak frontier %s "
              "per record):\n",
              plan->hops.size(), FormatBytes(plan->peak_keep_bytes).c_str());
  for (const auto& hop : plan->hops) {
    std::printf("  materialize %-10s compute {",
                arch->node(hop.target).name.c_str());
    for (size_t i = 0; i < hop.compute_nodes.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  arch->node(hop.compute_nodes[i]).name.c_str());
    }
    std::printf("} keep {");
    for (size_t i = 0; i < hop.keep_after.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  arch->node(hop.keep_after[i]).name.c_str());
    }
    std::printf("} (%s)\n", FormatBytes(hop.keep_bytes).c_str());
  }

  // Data + model.
  feat::MultimodalDatasetSpec spec;
  spec.num_records = 1000;
  spec.num_struct_features = 12;
  spec.image_size = 32;
  auto data = feat::GenerateMultimodal(spec);
  if (!data.ok()) return 1;
  auto model =
      DagModel::Instantiate(*arch, 31, dl::WeightInit::kGaborFirstConv);
  if (!model.ok()) return 1;

  // Execute the staged plan: per record, walk the hops carrying only the
  // frontier; collect the pooled features of each target.
  std::map<int, std::vector<std::vector<float>>> features_per_target;
  for (size_t r = 0; r < data->t_img.size(); ++r) {
    std::map<int, Tensor> frontier;
    frontier.emplace(DagModel::kRawInput, data->t_img[r].image());
    for (const auto& hop : plan->hops) {
      std::vector<int> want = hop.keep_after;
      want.push_back(hop.target);
      auto values = model->Compute(frontier, want);
      if (!values.ok()) return 1;
      auto pooled = dl::TransferFeaturize(values->at(hop.target));
      if (!pooled.ok()) return 1;
      features_per_target[hop.target].emplace_back(
          pooled->data(), pooled->data() + pooled->num_elements());
      std::map<int, Tensor> next;
      for (int keep : hop.keep_after) next.emplace(keep, values->at(keep));
      // Keep the raw input only while the plan still charges for it.
      int64_t kept_bytes = 0;
      for (int keep : hop.keep_after) {
        kept_bytes += arch->node(keep).output_shape.num_bytes();
      }
      if (hop.keep_bytes > kept_bytes) {
        next.emplace(DagModel::kRawInput, data->t_img[r].image());
      }
      frontier = std::move(next);
    }
  }

  // Train one logistic regression per target on [X, g(features)].
  df::Engine engine{df::EngineConfig{}};
  for (int target : targets) {
    std::vector<df::Record> rows;
    for (size_t r = 0; r < data->t_str.size(); ++r) {
      df::Record row = data->t_str[r];
      const auto& f = features_per_target[target][r];
      Tensor t(Shape{static_cast<int64_t>(f.size())},
               std::vector<float>(f));
      row.features.Append(std::move(t));
      rows.push_back(std::move(row));
    }
    auto table = engine.MakeTable(std::move(rows), 4);
    if (!table.ok()) return 1;
    auto extract = [](const df::Record& rec, std::vector<float>* x,
                      float* label) -> Status {
      *label = rec.struct_features[0];
      x->assign(rec.struct_features.begin() + 1, rec.struct_features.end());
      const Tensor& f = rec.features.at(0);
      x->insert(x->end(), f.data(), f.data() + f.num_elements());
      return Status::OK();
    };
    // Train on the 80% split, evaluate on the 20% held-out split.
    auto train = engine.Filter(*table, [](const df::Record& rec) {
      return !feat::IsTestId(rec.id, 0.2);
    });
    auto test = engine.Filter(*table, [](const df::Record& rec) {
      return feat::IsTestId(rec.id, 0.2);
    });
    if (!train.ok() || !test.ok()) return 1;
    ml::LogisticRegressionConfig lr;
    lr.iterations = 25;
    auto trained = ml::TrainLogisticRegression(&engine, *train, extract, lr);
    if (!trained.ok()) return 1;
    auto metrics = ml::Evaluate(&engine, *test, extract, [&](const float* x) {
      return trained->Predict(x);
    });
    if (!metrics.ok()) return 1;
    std::printf("feature node %-10s test F1 = %.1f%%\n",
                arch->node(target).name.c_str(), 100 * metrics->F1());
  }
  return 0;
}
