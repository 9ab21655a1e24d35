// Prefetch / layer-pipeline bench: the read-ahead plane (SpillManager
// prefetch + compute-aware depth in the executor) against the same engine
// with read-ahead disabled.
//
// The workload is the paper's feature-transfer inner loop under memory
// pressure: both base tables and the joined table live in a
// storage-constrained engine, so every partition read faults in from spill.
// Injected delayed I/O (FaultSite::kSpillReadDelay, rate 1.0) gives each
// spill read a deterministic stall sized to this machine's per-partition
// inference cost, modelling a congested volume. The serial run (prefetch
// depth 0, one compute thread) pays read-then-compute for every partition;
// the pipelined runs (same single compute thread, depths 1/2/4) overlap the
// stalls with partial-CNN GEMMs through the background reader — so the
// speedup measures overlap, not parallelism, and reproduces on 1 core.
//
// Sections in the JSON report ("extras"):
//   pipeline     serial_ms vs pipelined_ms (best depth) and their ratio
//                (overlap_ratio — the gated metric), plus per-depth times
//   prefetch     prefetch.* counters of the best pipelined run: requests,
//                hits, claimed (consumer won the race), dropped, and the
//                queue-depth high-water mark
//   determinism  1 if the materialized features are bit-identical across
//                prefetch depths {0, 1, 2, 4} (exit is non-zero otherwise)
//
// The regression gate tracks overlap_ratio and bit_identical, never raw
// milliseconds.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "dataflow/engine.h"
#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "vista/real_executor.h"

namespace vista::bench {
namespace {

struct PipelineRun {
  double total_ms = 0;
  double join_ms = 0;
  double materialize_ms = 0;
  /// The engine's prefetch-plane counts by report key: the "prefetch.*"
  /// counters and the "prefetch.queue_depth" high-water mark.
  std::map<std::string, int64_t> prefetch;
  /// Serialized partitions of the materialized feature table, for the
  /// bit-identical check across depths.
  std::vector<std::vector<uint8_t>> output_blobs;
  Status status = Status::OK();
};

Result<std::vector<std::vector<uint8_t>>> TableBlobs(const df::Table& table) {
  std::vector<std::vector<uint8_t>> blobs;
  for (const auto& p : table.partitions) {
    VISTA_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, p->ToBlob());
    blobs.push_back(std::move(blob));
  }
  return blobs;
}

/// One end-to-end pipeline pass on a fresh engine: persist both base
/// tables serialized (setup, untimed), then time join -> persist(joined)
/// -> materialize(top layer). `depth` drives both the engine's read-driven
/// ops and the executor's inference read-ahead; 0 is the serial reference.
/// `delay_ms` <= 0 disables the injected stalls (calibration).
PipelineRun RunPipeline(int depth, double delay_ms, int np,
                        int64_t storage_budget, const dl::CnnModel& model,
                        const std::vector<df::Record>& str_records,
                        const std::vector<df::Record>& img_records,
                        int target_layer) {
  PipelineRun run;
  df::EngineConfig config;
  config.num_workers = 1;
  // One compute thread: any speedup is read/compute overlap, not cores.
  config.cpus_per_worker = 1;
  config.budgets.storage = storage_budget;
  config.prefetch_depth = depth;
  config.prefetch_queue_capacity = std::max(4, depth);
  config.faults.seed = 11;
  if (delay_ms > 0) {
    config.faults.spill_read_delay_rate = 1.0;
    config.faults.spill_read_delay_ms = delay_ms;
  }
  df::Engine engine(config);

  auto t_str = engine.MakeTable(str_records, np);
  auto t_img = engine.MakeTable(img_records, np);
  if (!t_str.ok() || !t_img.ok()) {
    run.status = t_str.ok() ? t_img.status() : t_str.status();
    return run;
  }
  run.status = engine.Persist(&*t_str, df::PersistenceFormat::kSerialized);
  if (run.status.ok()) {
    run.status = engine.Persist(&*t_img, df::PersistenceFormat::kSerialized);
  }
  if (!run.status.ok()) return run;

  RealExecutor executor(&engine, &model);
  RealExecutorConfig exec;
  exec.num_partitions = np;
  exec.train_models = false;
  exec.prefetch_depth = depth;

  Stopwatch total;
  Stopwatch join_watch;
  auto joined =
      engine.Join(*t_str, *t_img, df::JoinStrategy::kShuffleHash, np);
  run.join_ms = join_watch.ElapsedSeconds() * 1e3;
  if (!joined.ok()) {
    run.status = joined.status();
    return run;
  }
  // The base tables are dead after the join; release their storage so the
  // joined table contends for the same constrained budget.
  engine.Unpersist(&*t_str);
  engine.Unpersist(&*t_img);
  run.status = engine.Persist(&*joined, df::PersistenceFormat::kSerialized);
  if (!run.status.ok()) return run;

  Stopwatch mat_watch;
  int64_t flops = 0;
  auto features =
      executor.MaterializeLayer(*joined, -1, -1, target_layer, exec, &flops);
  run.materialize_ms = mat_watch.ElapsedSeconds() * 1e3;
  run.total_ms = total.ElapsedSeconds() * 1e3;
  if (!features.ok()) {
    run.status = features.status();
    return run;
  }
  obs::Registry& metrics = engine.metrics();
  for (const char* key :
       {"requests", "hits", "claimed", "dropped", "corrupt_dropped"}) {
    run.prefetch[key] =
        metrics.counter(std::string("prefetch.") + key)->value();
  }
  run.prefetch["queue_depth_peak"] =
      metrics.gauge("prefetch.queue_depth")->max_value();
  auto blobs = TableBlobs(*features);
  if (!blobs.ok()) {
    run.status = blobs.status();
    return run;
  }
  run.output_blobs = std::move(blobs).value();
  return run;
}

int Main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const std::string out =
      FlagValue(argc, argv, "--out",
                smoke ? "BENCH_smoke_pipeline.json" : "BENCH_pipeline.json");
  Banner("pipeline",
         "compute-aware read-ahead + layer pipeline vs serial reads");
  BenchReporter reporter(
      "pipeline",
      "prefetch plane overlapping delayed spill reads with partial-CNN "
      "inference on one compute thread, vs the same engine reading "
      "synchronously");

  const int n = smoke ? 192 : 384;
  const int np = 16;
  const int reps = smoke ? 2 : 3;
  const std::vector<int> depths = {1, 2, 4};

  auto arch = dl::BuildMicroArch(dl::KnownCnn::kAlexNet);
  if (!arch.ok()) {
    std::fprintf(stderr, "arch: %s\n", arch.status().ToString().c_str());
    return 1;
  }
  auto model =
      dl::CnnModel::Instantiate(*arch, 21, dl::WeightInit::kGaborFirstConv);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  auto top = arch->TopLayers(1);
  if (!top.ok() || top->empty()) {
    std::fprintf(stderr, "no top layer\n");
    return 1;
  }
  const int target_layer = top->front();

  feat::MultimodalDatasetSpec spec;
  spec.num_records = n;
  spec.num_struct_features = 12;
  spec.image_size = 32;
  spec.seed = 3;
  auto data = feat::GenerateMultimodal(spec);
  if (!data.ok()) {
    std::fprintf(stderr, "data: %s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("%d records x %d partitions, target layer %d (%s)\n", n, np,
              target_layer, arch->layer(target_layer).name.c_str());

  // Storage budget sized from the actual table footprints so both inputs
  // and the joined table must spill most of their partitions.
  int64_t table_bytes = 0;
  {
    df::EngineConfig probe_config;
    df::Engine probe(probe_config);
    auto ts = probe.MakeTable(data->t_str, np);
    auto ti = probe.MakeTable(data->t_img, np);
    if (!ts.ok() || !ti.ok()) {
      std::fprintf(stderr, "probe table failed\n");
      return 1;
    }
    table_bytes = ts->memory_bytes() + ti->memory_bytes();
  }
  const int64_t storage_budget = std::max<int64_t>(table_bytes / 6, 1 << 16);

  // Calibrate the injected stall to this machine's per-partition inference
  // cost: overlap is most visible (and the model most honest) when the
  // reader's stall and the consumer's compute are the same order.
  double delay_ms = std::atof(FlagValue(argc, argv, "--delay", "0").c_str());
  if (delay_ms <= 0) {
    PipelineRun calib = RunPipeline(0, 0, np, storage_budget, *model,
                                    data->t_str, data->t_img, target_layer);
    if (!calib.status.ok()) {
      std::fprintf(stderr, "calibration failed: %s\n",
                   calib.status.ToString().c_str());
      return 1;
    }
    delay_ms = std::min(25.0, std::max(2.0, calib.materialize_ms / np));
    std::printf("calibration: materialize %.1f ms -> %.1f ms stall per "
                "spill read\n",
                calib.materialize_ms, delay_ms);
  }

  // --- Serial reference: prefetch off, best of `reps`.
  PipelineRun serial;
  for (int rep = 0; rep < reps; ++rep) {
    PipelineRun run = RunPipeline(0, delay_ms, np, storage_budget, *model,
                                  data->t_str, data->t_img, target_layer);
    if (!run.status.ok()) {
      std::fprintf(stderr, "serial run failed: %s\n",
                   run.status.ToString().c_str());
      return 1;
    }
    if (rep == 0 || run.total_ms < serial.total_ms) serial = std::move(run);
  }

  // --- Pipelined runs at each depth, best of `reps`; everything must stay
  // bit-identical to the serial output.
  obs::Json pipeline = obs::Json::Object();
  pipeline.Set("records", obs::Json::Int(n));
  pipeline.Set("partitions", obs::Json::Int(np));
  pipeline.Set("delay_ms", obs::Json::Num(delay_ms));
  pipeline.Set("serial_ms", obs::Json::Num(serial.total_ms));
  PipelineRun best;
  bool identical = true;
  for (int depth : depths) {
    PipelineRun best_at_depth;
    for (int rep = 0; rep < reps; ++rep) {
      PipelineRun run = RunPipeline(depth, delay_ms, np, storage_budget,
                                    *model, data->t_str, data->t_img,
                                    target_layer);
      if (!run.status.ok()) {
        std::fprintf(stderr, "depth-%d run failed: %s\n", depth,
                     run.status.ToString().c_str());
        return 1;
      }
      if (rep == 0 || run.total_ms < best_at_depth.total_ms) {
        best_at_depth = std::move(run);
      }
    }
    if (best_at_depth.output_blobs != serial.output_blobs) {
      std::fprintf(stderr, "depth %d output DIVERGES from serial\n", depth);
      identical = false;
    }
    std::printf("depth %d: %.1f ms (join %.1f, materialize %.1f), "
                "prefetch %ld/%ld hits\n",
                depth, best_at_depth.total_ms, best_at_depth.join_ms,
                best_at_depth.materialize_ms,
                static_cast<long>(best_at_depth.prefetch["hits"]),
                static_cast<long>(best_at_depth.prefetch["requests"]));
    pipeline.Set("depth_" + std::to_string(depth) + "_ms",
                 obs::Json::Num(best_at_depth.total_ms));
    if (best.total_ms == 0 || best_at_depth.total_ms < best.total_ms) {
      best = std::move(best_at_depth);
    }
  }
  const double overlap_ratio = serial.total_ms / best.total_ms;
  pipeline.Set("pipelined_ms", obs::Json::Num(best.total_ms));
  pipeline.Set("overlap_ratio", obs::Json::Num(overlap_ratio));
  std::printf("serial %.1f ms vs pipelined %.1f ms: %.2fx overlap, "
              "outputs %s\n",
              serial.total_ms, best.total_ms, overlap_ratio,
              identical ? "bit-identical" : "DIVERGE");
  reporter.AddSection("pipeline", std::move(pipeline));

  obs::Json prefetch = obs::Json::Object();
  for (const auto& [key, value] : best.prefetch) {
    prefetch.Set(key, obs::Json::Int(value));
  }
  reporter.AddSection("prefetch", std::move(prefetch));

  obs::Json det = obs::Json::Object();
  det.Set("bit_identical", obs::Json::Int(identical ? 1 : 0));
  reporter.AddSection("determinism", std::move(det));

  Status st = reporter.Write(out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace vista::bench

int main(int argc, char** argv) { return vista::bench::Main(argc, argv); }
