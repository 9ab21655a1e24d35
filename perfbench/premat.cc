// premat-spill-alexnet: the paper's Appendix B / Fig. 16 shape. Set-up
// pre-materializes the base (conv5) of micro AlexNet's top 4 layers and
// persists it serialized; each job then runs the Staged plan from that base
// (shuffle-hash join, serialized persistence, compute-aware prefetch, no
// training) with 130 structured features and a Storage budget far below the
// working set, so every persisted table spills and is read back verified.
// The dataflow layer does most of the work; dl runs only the fc layers and
// ml does nothing.
#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "harness.h"
#include "vista/plans.h"
#include "vista/real_executor.h"

namespace perfbench {
namespace {

using namespace vista;  // NOLINT

constexpr int64_t kRecords = 8000;
constexpr int kStructFeatures = 130;
constexpr int kPartitions = 8;
constexpr int kLayers = 4;
constexpr int64_t kStorageBudget = int64_t{4} << 20;
/// Latency limit of one job for slo_attainment, about twice its wall time
/// on a 4-core machine.
constexpr double kSloMs = 500.0;

struct Setup {
  std::unique_ptr<df::Engine> engine;
  std::unique_ptr<dl::CnnModel> model;
  df::Table t_str;
  /// Persisted (serialized) table carrying the base layer in slot 0.
  df::Table base;
  TransferWorkload workload;
  CompiledPlan plan;
  RealExecutorConfig config;
  double plan_ms = 0;
  /// Staged plan from the base: layers above it, once per record.
  int64_t expected_flops = 0;
};

Result<std::unique_ptr<Setup>> MakeSetup(const Args& args, SpanLog* log) {
  const uint64_t trace = log->NextId();
  auto s = std::make_unique<Setup>();
  df::EngineConfig ec = BaseEngineConfig(args);
  ec.budgets.storage = kStorageBudget;
  s->engine = std::make_unique<df::Engine>(ec);

  feat::MultimodalDatasetSpec spec;
  spec.num_records = kRecords;
  spec.num_struct_features = kStructFeatures;
  spec.image_size = 32;
  spec.seed = args.seed;
  VISTA_ASSIGN_OR_RETURN(
      Tables tables,
      MakeTables(s->engine.get(), spec, kPartitions, log, trace));
  s->t_str = std::move(tables.t_str);

  VISTA_ASSIGN_OR_RETURN(dl::CnnArchitecture arch, dl::MicroAlexNetArch());
  VISTA_ASSIGN_OR_RETURN(s->model, InstantiateModel(arch, log, trace));

  const double t0 = Now();
  s->workload.cnn = dl::KnownCnn::kAlexNet;
  VISTA_ASSIGN_OR_RETURN(s->workload.layers, arch.TopLayers(kLayers));
  VISTA_ASSIGN_OR_RETURN(s->plan, Traced(log, "CompilePlan", trace, [&] {
                           return CompilePlan(LogicalPlan::kStaged, s->workload,
                                              /*pre_materialized_base=*/true);
                         }));
  s->plan_ms = (Now() - t0) * 1e3;

  s->config.num_partitions = kPartitions;
  s->config.train_models = false;
  s->config.join = df::JoinStrategy::kShuffleHash;
  s->config.persistence = df::PersistenceFormat::kSerialized;
  s->config.prefetch_depth = -1;
  RealExecutor executor(s->engine.get(), s->model.get());
  VISTA_ASSIGN_OR_RETURN(
      s->base, Traced(log, "RealExecutor::PreMaterializeBase", trace, [&] {
        return executor.PreMaterializeBase(s->workload, tables.t_img,
                                           s->config);
      }));
  VISTA_RETURN_IF_ERROR(Traced(log, "Engine::Persist", trace, [&] {
    return s->engine->Persist(&s->base, df::PersistenceFormat::kSerialized);
  }));

  const int top = s->workload.layers.back();
  const int bottom = s->workload.layers.front();
  s->expected_flops =
      (arch.layer(top).cumulative_flops - arch.layer(bottom).cumulative_flops) *
      s->base.num_records();
  return s;
}

}  // namespace

void RunPremat(const Args& args, Report* report) {
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
  report->Note("data: " + std::to_string(s->base.num_records()) +
               " records, " + std::to_string(kStructFeatures) +
               " structured features, base layer " +
               s->model->arch().layer(s->workload.layers.front()).name +
               ", Storage budget " + std::to_string(kStorageBudget) +
               " bytes");

  df::Engine* engine = s->engine.get();
  RealExecutor executor(engine, s->model.get());
  TracedJobs traced_jobs;
  std::vector<double> spill_written;
  auto job = [&](bool traced) -> double {
    const uint64_t trace = traced ? log.NextId() : 0;
    s->model->EnableProfiling(traced ? &engine->metrics() : nullptr);
    const Values before = Probe(engine);
    const double t0 = Now();
    // Untraced jobs record no spans.
    SpanLog* job_log = traced ? &log : nullptr;
    auto run = Traced(job_log, "RealExecutor::Run", trace, [&] {
      return executor.Run(s->plan, s->workload, s->t_str, s->base, s->config);
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
    if (Get(delta, "stats.checksum_failures") != 0) {
      report->Fail("job saw checksum failures");
      ok = false;
    }
    if (Get(delta, "stats.spill_bytes_written") <= 0 ||
        Get(delta, "stats.spill_bytes_read") <= 0) {
      report->Fail("job did not spill (written " +
                   std::to_string(Get(delta, "stats.spill_bytes_written")) +
                   ", read " +
                   std::to_string(Get(delta, "stats.spill_bytes_read")) + ")");
      ok = false;
    }
    if (!ok) return -1;
    spill_written.push_back(Get(delta, "stats.spill_bytes_written"));
    if (traced) traced_jobs.Add(*run, delta, seconds);
    return seconds;
  };
  const JobTimes times = RunJobs(args, job, report);
  s->model->EnableProfiling(nullptr);
  if (times.untraced.empty()) {
    report->Fail("no job completed");
    return;
  }
  report->Note("spill written per job: median " +
               std::to_string(Median(spill_written) / 1e6) + " MB");

  if (!args.trace) {
    EmitJobEndToEnd(setup_seconds, times, kSloMs, report);
    return;
  }

  traced_jobs.Emit(times, plan_ms, engine, report);
  if (!args.trace_out.empty()) {
    Status st = log.Write(args.trace_out);
    if (!st.ok()) report->Fail(st.ToString());
  }
}

}  // namespace perfbench
