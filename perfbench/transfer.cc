// transfer-resnet50-lr: the feature-transfer job as users issue it —
// Vista::Create (ResNet50, top 4 layers, logistic regression, 10
// iterations) and Vista::ExecuteReal on the micro ResNet50 twin, over a
// Foods-shaped dataset (12 structured features, 32x32 images, 8000 records,
// 8 partitions) with unconstrained memory. Inference and downstream
// training do almost all the work; the dataflow layer does almost none.
#include <cstring>
#include <optional>

#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "harness.h"
#include "vista/vista.h"

namespace perfbench {
namespace {

using namespace vista;  // NOLINT

constexpr int64_t kRecords = 8000;
constexpr int kStructFeatures = 12;
constexpr int kPartitions = 8;
constexpr int kLayers = 4;
constexpr int kIterations = 10;
/// Repeated downstream trainings per layer for ml.train_ms and
/// ml.weights_identical.
constexpr int kTrainReps = 3;
/// Latency limit of one job for slo_attainment, about twice its wall time
/// on a 4-core machine.
constexpr double kSloMs = 5000.0;

struct Setup {
  std::unique_ptr<df::Engine> engine;
  std::unique_ptr<dl::CnnModel> model;
  df::Table t_str;
  df::Table t_img;
  std::optional<Vista> vista;
  /// The explored layers of the micro model, ascending.
  std::vector<int> layers;
  double plan_ms = 0;
  /// Staged plan from raw images: f̂ through the top layer, once per record.
  int64_t expected_flops = 0;
};

Result<std::unique_ptr<Setup>> MakeSetup(const Args& args, SpanLog* log) {
  const uint64_t trace = log->NextId();
  auto s = std::make_unique<Setup>();
  s->engine = std::make_unique<df::Engine>(BaseEngineConfig(args));

  feat::MultimodalDatasetSpec spec;
  spec.num_records = kRecords;
  spec.num_struct_features = kStructFeatures;
  spec.image_size = 32;
  spec.seed = args.seed;
  VISTA_ASSIGN_OR_RETURN(
      Tables tables,
      MakeTables(s->engine.get(), spec, kPartitions, log, trace));
  s->t_str = std::move(tables.t_str);
  s->t_img = std::move(tables.t_img);

  VISTA_ASSIGN_OR_RETURN(dl::CnnArchitecture arch, dl::MicroResNet50Arch());
  VISTA_ASSIGN_OR_RETURN(s->model, InstantiateModel(arch, log, trace));

  Vista::Options options;
  options.cnn = dl::KnownCnn::kResNet50;
  options.num_layers = kLayers;
  options.model = DownstreamModel::kLogisticRegression;
  options.training_iterations = kIterations;
  options.data.num_records = kRecords;
  options.data.num_struct_features = kStructFeatures + 1;  // + label.
  const double t0 = Now();
  VISTA_ASSIGN_OR_RETURN(Vista vista, Traced(log, "Vista::Create", trace, [&] {
                           return Vista::Create(options);
                         }));
  VISTA_RETURN_IF_ERROR(
      Traced(log, "Vista::Plan", trace, [&] { return vista.Plan(); })
          .status());
  s->plan_ms = (Now() - t0) * 1e3;
  s->vista = std::move(vista);

  VISTA_ASSIGN_OR_RETURN(s->layers, arch.TopLayers(kLayers));
  s->expected_flops = arch.layer(s->layers.back()).cumulative_flops *
                      s->t_img.num_records();
  return s;
}

/// ml layer, measured directly on the tables the job trains on: each
/// explored layer's joined table is materialized once, then logistic
/// regression is trained on it kTrainReps times and the transfer extractor
/// makes single passes over it. Times are summed over the layers.
void MeasureMl(Setup* s, SpanLog* log, LayerMetrics* m, Report* report) {
  const uint64_t trace = log->NextId();
  df::Engine* engine = s->engine.get();
  auto joined = Traced(log, "Engine::Join", trace, [&] {
    return engine->Join(s->t_str, s->t_img, df::JoinStrategy::kShuffleHash,
                        kPartitions);
  });
  if (!joined.ok()) {
    report->Fail("ml join: " + joined.status().ToString());
    return;
  }
  RealExecutor executor(engine, s->model.get());
  RealExecutorConfig config;
  config.num_partitions = kPartitions;
  const ml::FeatureExtractor extract =
      MakeTransferExtractor(/*feature_slot=*/0, config.pooling_grid);
  ml::LogisticRegressionConfig lr;
  lr.iterations = kIterations;

  df::Table table = *joined;
  int source_layer = -1;
  int identical = 0;
  for (int layer : s->layers) {
    int64_t flops = 0;
    auto next = Traced(log, "RealExecutor::MaterializeLayer", trace, [&] {
      return executor.MaterializeLayer(table, 0, source_layer, layer, config,
                                       &flops);
    });
    if (!next.ok()) {
      report->Fail("ml materialize: " + next.status().ToString());
      return;
    }
    table = std::move(next).value();
    source_layer = layer;

    std::vector<double> train_ms, pass_ms;
    std::vector<double> first_weights;
    double first_bias = 0;
    for (int rep = 0; rep < kTrainReps; ++rep) {
      const double t0 = Now();
      auto model = Traced(log, "ml::TrainLogisticRegression", trace, [&] {
        return ml::TrainLogisticRegression(engine, table, extract, lr);
      });
      train_ms.push_back((Now() - t0) * 1e3);
      if (!model.ok()) {
        report->Fail("ml train: " + model.status().ToString());
        return;
      }
      const double bias = model->bias();
      if (rep == 0) {
        first_weights = model->weights();
        first_bias = bias;
      } else if (model->weights().size() == first_weights.size() &&
                 std::memcmp(model->weights().data(), first_weights.data(),
                             first_weights.size() * sizeof(double)) == 0 &&
                 std::memcmp(&first_bias, &bias, sizeof(double)) == 0) {
        ++identical;
      }

      const double p0 = Now();
      auto pass = Traced(log, "Engine::MapPartitions", trace, [&] {
        return engine->MapPartitions(
            table,
            [&extract](std::vector<df::Record> records)
                -> Result<std::vector<df::Record>> {
              std::vector<float> x;
              float label = 0;
              for (const df::Record& r : records) {
                VISTA_RETURN_IF_ERROR(extract(r, &x, &label));
              }
              return std::vector<df::Record>{};
            });
      });
      pass_ms.push_back((Now() - p0) * 1e3);
      if (!pass.ok()) {
        report->Fail("ml extract pass: " + pass.status().ToString());
        return;
      }
    }
    m->ml_train_ms += Median(train_ms);
    m->ml_extract_pass_ms += Median(pass_ms);
  }
  m->ml_extract_share = kIterations * m->ml_extract_pass_ms / m->ml_train_ms;
  m->ml_weights_identical = identical;
  m->ml_samples = kTrainReps;
  report->Note("ml: " + std::to_string(identical) + " of " +
               std::to_string((kTrainReps - 1) * kLayers) +
               " repeated trainings bitwise equal to their layer's first");
}

}  // namespace

void RunTransfer(const Args& args, Report* report) {
  SpanLog log;
  log.set_enabled(args.trace);
  std::vector<double> setup_seconds;
  std::vector<double> plan_ms;
  std::unique_ptr<Setup> s = RepeatSetup<Setup>(
      [&]() -> Result<std::unique_ptr<Setup>> {
        auto made = MakeSetup(args, &log);
        if (made.ok()) plan_ms.push_back((*made)->plan_ms);
        return made;
      },
      &setup_seconds, report);
  if (s == nullptr) return;
  report->Note("data: " + std::to_string(s->t_img.num_records()) +
               " records, " + std::to_string(kStructFeatures) +
               " structured features, " + std::to_string(kPartitions) +
               " partitions; optimizer: " + s->vista->decisions().ToString());

  df::Engine* engine = s->engine.get();
  std::vector<double> f1s;
  TracedJobs traced_jobs;
  auto job = [&](bool traced) -> double {
    const uint64_t trace = traced ? log.NextId() : 0;
    s->model->EnableProfiling(traced ? &engine->metrics() : nullptr);
    const Values before = Probe(engine);
    const double t0 = Now();
    // Untraced jobs record no spans.
    SpanLog* job_log = traced ? &log : nullptr;
    auto run = Traced(job_log, "Vista::ExecuteReal", trace, [&] {
      return s->vista->ExecuteReal(engine, s->model.get(), s->t_str, s->t_img,
                                   kPartitions);
    });
    const double seconds = Now() - t0;
    const Values delta = Delta(before, Probe(engine));
    if (!run.ok()) {
      report->Fail("job: " + run.status().ToString());
      return -1;
    }
    bool ok = true;
    if (run->inference_flops != s->expected_flops) {
      report->Fail("job inference_flops " +
                   std::to_string(run->inference_flops) + " != Staged " +
                   std::to_string(s->expected_flops));
      ok = false;
    }
    double f1_sum = 0;
    for (const LayerRunResult& layer : run->per_layer) {
      if (layer.test_metrics.total() <= 0) {
        report->Fail("layer " + layer.layer_name + " reports no test F1");
        ok = false;
      }
      f1_sum += layer.test_f1;
    }
    if (run->per_layer.size() != static_cast<size_t>(kLayers)) {
      report->Fail("job trained " + std::to_string(run->per_layer.size()) +
                   " layers, expected " + std::to_string(kLayers));
      ok = false;
    }
    if (!ok) return -1;
    f1s.push_back(f1_sum / kLayers);
    if (traced) traced_jobs.Add(*run, delta, seconds);
    return seconds;
  };
  const JobTimes times = RunJobs(args, job, report);
  s->model->EnableProfiling(nullptr);
  if (times.untraced.empty()) {
    report->Fail("no job completed");
    return;
  }
  f1s.erase(f1s.begin());  // The warm-up job's.

  if (!args.trace) {
    EmitJobEndToEnd(setup_seconds, times, kSloMs, report);
    return;
  }

  traced_jobs.metrics().ml_test_f1 = Median(f1s);
  MeasureMl(s.get(), &log, &traced_jobs.metrics(), report);
  traced_jobs.Emit(times, plan_ms, engine, report);
  if (!args.trace_out.empty()) {
    Status st = log.Write(args.trace_out);
    if (!st.ok()) report->Fail(st.ToString());
  }
}

}  // namespace perfbench
