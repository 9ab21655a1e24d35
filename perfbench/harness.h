// Shared plumbing of the repository benchmark: command-line arguments, the
// metric report and its JSON line, exact sample statistics, a seeded RNG,
// benchmark-side trace spans, and before/after probes of the engine's
// counters (so every reported dataflow number is a per-job delta, never an
// engine-lifetime total).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "dl/cnn.h"
#include "features/synthetic.h"
#include "vista/real_executor.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
  /// Directory for engine spill files; must lie inside the checkout.
  std::string scratch_dir;
};

/// Seconds on the steady clock since an arbitrary fixed epoch.
double Now();

/// Exact sample statistics (no bucketing): linear interpolation between
/// the closest ranks, as numpy's default quantile does.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
/// Number of samples strictly above `threshold`.
int64_t CountAbove(const std::vector<double>& samples, double threshold);

/// splitmix64: a fixed, platform-independent stream per seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Exponential inter-arrival gap for a Poisson process of `rate` per s.
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Process-wide peak resident set size in MiB (getrusage).
double PeakRssMb();

/// Metrics of one run plus the pass/fail verdict of its output checks.
/// Print() writes one human-readable line per metric (value, unit and
/// sample count) and, last, the JSON object the run is judged by.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples);
  /// Records a failed output check; the run then exits non-zero.
  void Fail(const std::string& what);
  /// A context line printed before the metrics.
  void Note(const std::string& line);

  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Failed(int64_t n = 1) { failed_ += n; }

  bool correct() const { return failures_.empty(); }
  /// Prints the report; returns the process exit code.
  int Print() const;

 private:
  struct Entry {
    double value = 0;
    std::string unit;
    int64_t samples = 0;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Prints the run context (machine, build, workload seed) into `report`.
void NoteRunContext(const Args& args, Report* report);

/// --- Benchmark-side tracing ---------------------------------------------
/// Spans are recorded only around the public calls the benchmark makes
/// (nothing inside the library is instrumented). Every span of one job or
/// query carries that job's trace id; parents nest per thread.
struct Span {
  std::string name;
  uint64_t trace_id = 0;
  uint64_t id = 0;
  uint64_t parent_id = 0;
  double start = 0;  // Now() seconds.
  double end = 0;
};

class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  uint64_t NextId() { return next_id_.fetch_add(1); }
  void Add(Span span);
  /// Writes every span as a Chrome trace-event JSON file.
  vista::Status Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op while the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t trace_id);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// Runs `fn` inside a span named `name`.
template <typename Fn>
auto Traced(SpanLog* log, const char* name, uint64_t trace_id, Fn&& fn) {
  ScopedSpan span(log, name, trace_id);
  return fn();
}

/// --- Per-job deltas -------------------------------------------------------
/// Every counter value and every histogram's sum/count of a registry, plus
/// the engine's settled spill totals and retries (Engine::stats drains the
/// async spill writer first). Differences of two probes are one job's own
/// numbers, whatever ran on the engine before.
using Values = std::map<std::string, double>;
Values Probe(vista::df::Engine* engine);
Values Delta(const Values& before, const Values& after);
void Accumulate(const Values& delta, Values* total);
inline double Get(const Values& v, const std::string& key) {
  auto it = v.find(key);
  return it == v.end() ? 0.0 : it->second;
}

/// Weight seed of every CNN: the model is the user's fixed artifact, so it
/// does not change with the workload seed (only the data does).
inline constexpr uint64_t kModelSeed = 42;

/// The CNN for `arch` with kModelSeed weights, created inside a span.
vista::Result<std::unique_ptr<vista::dl::CnnModel>> InstantiateModel(
    const vista::dl::CnnArchitecture& arch, SpanLog* log, uint64_t trace);

/// The structured and image tables of a generated dataset.
struct Tables {
  vista::df::Table t_str;
  vista::df::Table t_img;
};
/// Generates `spec` and hash-partitions both sides on `engine`, inside
/// spans.
vista::Result<Tables> MakeTables(vista::df::Engine* engine,
                                 const vista::feat::MultimodalDatasetSpec& spec,
                                 int partitions, SpanLog* log, uint64_t trace);

/// --- Set-up and job loops ---------------------------------------------------
/// Set-up runs at least kSetupReps times and until kSetupSeconds have
/// passed, at most kMaxSetupReps times; setup_s is the median. A cheap
/// set-up thus gets more samples than an expensive one.
inline constexpr int kSetupReps = 3;
inline constexpr int kMaxSetupReps = 25;
inline constexpr double kSetupSeconds = 4.0;

/// Runs `make` as set out above, freeing each result before the next so the
/// peak RSS holds one set-up, and keeps the last. Appends each wall time to
/// `seconds`; on failure records it in `report` and returns null.
template <typename T, typename Make>
std::unique_ptr<T> RepeatSetup(Make make, std::vector<double>* seconds,
                               Report* report) {
  std::unique_ptr<T> kept;
  const double start = Now();
  for (int i = 0; i < kMaxSetupReps; ++i) {
    if (i >= kSetupReps && Now() - start >= kSetupSeconds) break;
    kept.reset();
    const double t0 = Now();
    vista::Result<std::unique_ptr<T>> made = make();
    seconds->push_back(Now() - t0);
    if (!made.ok()) {
      report->Fail("setup: " + made.status().ToString());
      return nullptr;
    }
    kept = std::move(made).value();
  }
  return kept;
}

/// Wall seconds of the measured jobs of one run.
struct JobTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
  /// Measured jobs that failed.
  int64_t failed = 0;
};

/// Prints the end-to-end metrics every workload reports with --trace 0. A
/// unit is one job or one query: `exec_s` holds each completed unit's own
/// execution seconds (no queueing), `latency_ms` its latency from its
/// scheduled start, and `scheduled` counts the units sent, failed and shed
/// ones included. `slo_ms` is the workload's latency limit.
void EmitEndToEnd(const std::vector<double>& setup_s,
                  const std::vector<double>& exec_s,
                  const std::vector<double>& latency_ms, int64_t scheduled,
                  double slo_ms, Report* report);

/// EmitEndToEnd for a job workload: jobs run back to back, so each is
/// scheduled when the one before ends, and its latency is its wall time.
void EmitJobEndToEnd(const std::vector<double>& setup_s, const JobTimes& times,
                     double slo_ms, Report* report);

/// The job workloads' loop: one warm-up job, then jobs back to back until
/// args.seconds have passed (and at least a few ran). In a traced run,
/// untraced and traced jobs alternate so obs.trace_overhead_frac compares
/// neighbours. `job(traced)` returns the job's wall seconds, or a negative
/// value when it failed; attempts and failures go into `report`.
JobTimes RunJobs(const Args& args,
                 const std::function<double(bool traced)>& job,
                 Report* report);

/// Engine configuration every workload shares: one worker with 4 CPUs and
/// spill files under the run's scratch directory.
vista::df::EngineConfig BaseEngineConfig(const Args& args);

/// --- Per-layer metrics ------------------------------------------------------
/// The traced run's per-layer values. Every workload prints every name, so
/// a layer that a workload leaves idle reads 0 there.
struct LayerMetrics {
  double plan_ms = 0;
  std::map<std::string, double> stage_s;
  double train_share = 0;
  double inference_flops = 0;
  double ml_train_ms = 0;
  double ml_extract_pass_ms = 0;
  double ml_extract_share = 0;
  double ml_weights_identical = 0;
  int64_t ml_samples = 0;
  /// Mean held-out F1 over the explored layers, median over the jobs.
  double ml_test_f1 = 0;
  double queue_p50_ms = 0, queue_p95_ms = 0;
  double exec_p50_ms = 0, exec_p95_ms = 0;
  double hit_rate = 0, resume_rate = 0, miss_rate = 0;
  double flops_per_query = 0;
  double view_inserts = 0, view_evictions = 0, admission_rejects = 0;
  double late_p95_ms = 0, late_max_ms = 0;
  double trace_overhead_frac = 0;
  /// Sum of per-unit deltas (jobs or queries) and how many units.
  Values deltas;
  int64_t units = 0;
  int64_t samples = 0;
};

/// Per-layer accumulation over the traced jobs of a job workload.
class TracedJobs {
 public:
  /// Adds one traced job: its engine delta, stage seconds and FLOPs.
  void Add(const vista::RealRunResult& run, const Values& delta,
           double seconds);
  /// Emits every per-layer metric for the job workloads (vista.* from the
  /// traced jobs' medians, obs.trace_overhead_frac from `times`).
  void Emit(const JobTimes& times, const std::vector<double>& plan_ms,
            vista::df::Engine* engine, Report* report);
  LayerMetrics& metrics() { return m_; }

 private:
  LayerMetrics m_;
  std::map<std::string, std::vector<double>> stages_;
  std::vector<double> coverage_;
};

/// Packed-GEMM throughput (GemmPackedParallel, 256x1152x196) on `pool`.
double GemmPeakGflops(vista::ThreadPool* pool);

/// Emits every per-layer metric from `m` (dataflow and dl values are
/// per-unit means of m.deltas) plus the tensor-layer measurements.
void EmitLayerMetrics(const LayerMetrics& m, vista::df::Engine* engine,
                      Report* report);

/// Workloads. Each returns after filling `report`.
void RunTransfer(const Args& args, Report* report);
void RunPremat(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
