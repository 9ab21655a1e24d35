#include "harness.h"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "dl/model_zoo.h"
#include "tensor/gemm_kernel.h"
#include "tensor/scratch.h"

namespace perfbench {

using vista::Status;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int64_t CountAbove(const std::vector<double>& samples, double threshold) {
  return std::count_if(samples.begin(), samples.end(),
                       [threshold](double v) { return v > threshold; });
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Exponential(double rate) {
  return -std::log(1.0 - Uniform()) / rate;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

// ------------------------------------------------------------------ report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0;
  }
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{value, unit, samples};
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Note(const std::string& line) { notes_.push_back(line); }

int Report::Print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("metric %-44s %.6g %s (n=%lld)\n", name.c_str(), e.value,
                e.unit.c_str(), static_cast<long long>(e.samples));
  }
  const double failed_frac =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
  std::printf("# operations: %lld attempted, %lld failed or shed "
              "(failed_frac %.6g)\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), failed_frac);
  for (const std::string& f : failures_) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted_, 1)),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < order_.size(); ++i) {
    const Entry& e = metrics_.at(order_[i]);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", order_[i].c_str(), e.value,
                e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

namespace {

std::string CpuBrand() {
  unsigned int regs[12] = {0};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {0};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

}  // namespace

void NoteRunContext(const Args& args, Report* report) {
  __builtin_cpu_init();
  std::string vnni;
  if (__builtin_cpu_supports("avx512vnni")) vnni += " avx512vnni";
  if (__builtin_cpu_supports("avxvnni")) vnni += " avxvnni";
  if (vnni.empty()) vnni = " none";
  report->Note("workload " + args.workload + ", seed " +
               std::to_string(args.seed) + ", " +
               std::to_string(args.seconds) + " s, trace " +
               (args.trace ? "1" : "0"));
  report->Note("nproc " +
               std::to_string(std::thread::hardware_concurrency()) +
               ", build " PERFBENCH_BUILD_TYPE ", compiler gcc " __VERSION__);
  report->Note("cpu " + CpuBrand() + ", vnni:" + vnni +
               ", int8 kernel " + vista::GemmInt8KernelName());
}

// ------------------------------------------------------------------- spans

namespace {
thread_local uint64_t t_current_span = 0;
}  // namespace

void SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

Status SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  double epoch = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) epoch = std::min(epoch, s.start);
  out << "{\"traceEvents\": [\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu, \"trace\": %llu}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.trace_id),
                  (s.start - epoch) * 1e6, (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent_id),
                  static_cast<unsigned long long>(s.trace_id));
    out << buf;
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, uint64_t trace_id)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = std::move(name);
  span_.trace_id = trace_id;
  span_.id = log_->NextId();
  span_.parent_id = t_current_span;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start = Now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end = Now();
  t_current_span = saved_parent_;
  log_->Add(std::move(span_));
}

// ------------------------------------------------------------------ probes

Values Probe(vista::df::Engine* engine) {
  const vista::df::EngineStats stats = engine->stats();
  Values v;
  for (const vista::obs::Counter* c : engine->metrics().counters()) {
    v[c->name()] = static_cast<double>(c->value());
  }
  for (const vista::obs::Histogram* h : engine->metrics().histograms()) {
    v[h->name() + ".sum"] = h->sum();
    v[h->name() + ".count"] = static_cast<double>(h->count());
  }
  v["stats.spill_bytes_written"] =
      static_cast<double>(stats.spill_bytes_written);
  v["stats.spill_bytes_read"] = static_cast<double>(stats.spill_bytes_read);
  v["stats.retries"] = static_cast<double>(stats.recovery.retries);
  v["stats.checksum_failures"] =
      static_cast<double>(stats.integrity.checksum_failures);
  return v;
}

Values Delta(const Values& before, const Values& after) {
  Values d;
  for (const auto& [key, value] : after) d[key] = value - Get(before, key);
  return d;
}

void Accumulate(const Values& delta, Values* total) {
  for (const auto& [key, value] : delta) (*total)[key] += value;
}

// ------------------------------------------------------------------ set-up

vista::Result<std::unique_ptr<vista::dl::CnnModel>> InstantiateModel(
    const vista::dl::CnnArchitecture& arch, SpanLog* log, uint64_t trace) {
  VISTA_ASSIGN_OR_RETURN(vista::dl::CnnModel model,
                         Traced(log, "CnnModel::Instantiate", trace, [&] {
                           return vista::dl::CnnModel::Instantiate(
                               arch, kModelSeed,
                               vista::dl::WeightInit::kGaborFirstConv);
                         }));
  return std::make_unique<vista::dl::CnnModel>(std::move(model));
}

vista::Result<Tables> MakeTables(vista::df::Engine* engine,
                                 const vista::feat::MultimodalDatasetSpec& spec,
                                 int partitions, SpanLog* log,
                                 uint64_t trace) {
  VISTA_ASSIGN_OR_RETURN(
      vista::feat::MultimodalDataset data,
      Traced(log, "feat::GenerateMultimodal", trace,
             [&] { return vista::feat::GenerateMultimodal(spec); }));
  Tables tables;
  VISTA_ASSIGN_OR_RETURN(tables.t_str,
                         Traced(log, "Engine::MakeTable", trace, [&] {
                           return engine->MakeTable(std::move(data.t_str),
                                                    partitions);
                         }));
  VISTA_ASSIGN_OR_RETURN(tables.t_img,
                         Traced(log, "Engine::MakeTable", trace, [&] {
                           return engine->MakeTable(std::move(data.t_img),
                                                    partitions);
                         }));
  return tables;
}

// ------------------------------------------------------------------- loops

JobTimes RunJobs(const Args& args,
                 const std::function<double(bool traced)>& job,
                 Report* report) {
  constexpr int kMinJobs = 4;
  JobTimes times;
  if (job(false) < 0) {
    report->Fail("warm-up job failed");
    return times;
  }
  const double start = Now();
  for (int64_t i = 0;; ++i) {
    if (Now() - start >= args.seconds && i >= kMinJobs) break;
    const bool traced = args.trace && i % 2 == 1;
    const double seconds = job(traced);
    report->Attempt();
    if (seconds < 0) {
      report->Failed();
      ++times.failed;
      continue;
    }
    (traced ? times.traced : times.untraced).push_back(seconds);
  }
  return times;
}

void EmitEndToEnd(const std::vector<double>& setup_s,
                  const std::vector<double>& exec_s,
                  const std::vector<double>& latency_ms, int64_t scheduled,
                  double slo_ms, Report* report) {
  const int64_t completed = static_cast<int64_t>(latency_ms.size());
  const double p95 = Quantile(latency_ms, 0.95);
  report->Note("samples beyond query p95: " +
               std::to_string(CountAbove(latency_ms, p95)) + " of " +
               std::to_string(completed) + "; latency limit " +
               std::to_string(slo_ms) + " ms");
  report->Metric("setup_s", Median(setup_s), "s",
                 static_cast<int64_t>(setup_s.size()));
  report->Metric("job_s", Median(exec_s), "s",
                 static_cast<int64_t>(exec_s.size()));
  report->Metric("query_p50_ms", Median(latency_ms), "ms", completed);
  report->Metric("query_p95_ms", p95, "ms", completed);
  const int64_t within = std::count_if(
      latency_ms.begin(), latency_ms.end(),
      [slo_ms](double ms) { return ms <= slo_ms; });
  report->Metric("slo_attainment",
                 static_cast<double>(within) /
                     static_cast<double>(std::max<int64_t>(scheduled, 1)),
                 "ratio", scheduled);
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB", 1);
}

void EmitJobEndToEnd(const std::vector<double>& setup_s, const JobTimes& times,
                     double slo_ms, Report* report) {
  std::vector<double> ms;
  for (double s : times.untraced) ms.push_back(s * 1e3);
  EmitEndToEnd(setup_s, times.untraced, ms,
               static_cast<int64_t>(times.untraced.size()) + times.failed,
               slo_ms, report);
}

vista::df::EngineConfig BaseEngineConfig(const Args& args) {
  static std::atomic<int> engines{0};
  vista::df::EngineConfig config;
  config.num_workers = 1;
  config.cpus_per_worker = 4;
  config.spill_dir =
      args.scratch_dir + "/spill-" + std::to_string(engines.fetch_add(1));
  return config;
}

// ----------------------------------------------------------- layer metrics

void TracedJobs::Add(const vista::RealRunResult& run, const Values& delta,
                     double seconds) {
  Accumulate(delta, &m_.deltas);
  ++m_.units;
  double covered = 0;
  for (const auto& [stage, secs] : run.stage_seconds) {
    stages_[stage].push_back(secs);
    covered += secs;
  }
  coverage_.push_back(covered / seconds);
  m_.inference_flops = static_cast<double>(run.inference_flops);
}

void TracedJobs::Emit(const JobTimes& times, const std::vector<double>& plan_ms,
                      vista::df::Engine* engine, Report* report) {
  const double traced_s = Median(times.traced);
  m_.samples = static_cast<int64_t>(times.traced.size());
  m_.plan_ms = Median(plan_ms);
  for (auto& [stage, secs] : stages_) m_.stage_s[stage] = Median(secs);
  m_.train_share = m_.stage_s["train"] / traced_s;
  m_.trace_overhead_frac = traced_s / Median(times.untraced) - 1;
  report->Note("traced job_s " + std::to_string(traced_s) +
               ", stage spans cover " +
               std::to_string(Median(coverage_) * 100) + "% of it");
  EmitLayerMetrics(m_, engine, report);
}

double GemmPeakGflops(vista::ThreadPool* pool) {
  const int64_t m = 256, k = 1152, n = 196;
  Rng rng(1);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (float& x : a) x = static_cast<float>(rng.Uniform() - 0.5);
  for (float& x : b) x = static_cast<float>(rng.Uniform() - 0.5);
  const vista::GemmEpilogue epilogue;
  auto call = [&] {
    vista::GemmPackedParallel(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                              epilogue, pool);
  };
  for (int i = 0; i < 3; ++i) call();
  std::vector<double> seconds;
  for (int i = 0; i < 30; ++i) {
    const double t0 = Now();
    call();
    seconds.push_back(Now() - t0);
  }
  return 2.0 * m * n * k / Median(seconds) / 1e9;
}

void EmitLayerMetrics(const LayerMetrics& m, vista::df::Engine* engine,
                      Report* report) {
  const double units = static_cast<double>(std::max<int64_t>(m.units, 1));
  const int64_t n = m.units;
  const Values& d = m.deltas;
  auto per_unit = [&](const std::string& key) { return Get(d, key) / units; };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  report->Metric("vista.plan_ms", m.plan_ms, "ms", m.samples);
  for (const char* stage : {"join", "inference", "persistence", "train"}) {
    auto it = m.stage_s.find(stage);
    report->Metric(std::string("vista.stage_s.") + stage,
                   it == m.stage_s.end() ? 0 : it->second, "s", n);
  }
  report->Metric("vista.train_share", m.train_share, "ratio", n);
  report->Metric("vista.inference_flops", m.inference_flops, "count", n);

  // dl: per-unit thread-milliseconds and achieved per-thread GFLOP/s of
  // every logical layer of both micro models; layers a workload never runs
  // read 0.
  const int threads = engine->parallelism();
  const double gemm_peak = GemmPeakGflops(engine->pool());
  double conv_flops = 0, conv_ms = 0;
  for (auto build : {vista::dl::MicroResNet50Arch,
                     vista::dl::MicroAlexNetArch}) {
    auto arch = build();
    if (!arch.ok()) {
      report->Fail("micro architecture: " + arch.status().ToString());
      continue;
    }
    for (const vista::dl::LayerStat& layer : arch->layers()) {
      const std::string suffix = arch->name() + "." + layer.name;
      const double ms = per_unit("dl.forward_ms." + suffix + ".sum");
      const double flops = per_unit("dl.flops." + suffix);
      report->Metric("dl.forward_ms." + suffix, ms, "ms", n);
      report->Metric("dl.gflops." + suffix, ratio(flops, ms * 1e6),
                     "GFLOP/s", n);
      if (layer.convolutional) {
        conv_flops += flops;
        conv_ms += ms;
      }
    }
  }
  // Each image runs on one engine thread, so per-thread conv throughput is
  // compared with the per-thread share of the parallel GEMM peak.
  report->Metric("dl.conv_efficiency",
                 ratio(ratio(conv_flops, conv_ms * 1e6), gemm_peak / threads),
                 "ratio", n);
  report->Metric("tensor.gemm_peak_gflops", gemm_peak, "GFLOP/s", 30);
  report->Metric("tensor.scratch_peak_bytes",
                 static_cast<double>(vista::KernelScratch::GlobalPeakBytes()),
                 "bytes", 1);

  report->Metric("ml.train_ms", m.ml_train_ms, "ms", m.ml_samples);
  report->Metric("ml.extract_pass_ms", m.ml_extract_pass_ms, "ms",
                 m.ml_samples);
  report->Metric("ml.extract_share", m.ml_extract_share, "ratio",
                 m.ml_samples);
  report->Metric("ml.weights_identical", m.ml_weights_identical, "count",
                 m.ml_samples);
  report->Metric("ml.test_f1", m.ml_test_f1, "ratio", n);

  report->Metric("dataflow.shuffle_bytes", per_unit("engine.shuffle_bytes"),
                 "bytes", n);
  report->Metric("dataflow.shuffle_ms", per_unit("engine.shuffle_ms.sum"),
                 "ms", n);
  report->Metric("dataflow.serialize_ms", per_unit("engine.serialize_ms.sum"),
                 "ms", n);
  report->Metric("dataflow.spill_bytes_written",
                 per_unit("stats.spill_bytes_written"), "bytes", n);
  report->Metric("dataflow.spill_bytes_read",
                 per_unit("stats.spill_bytes_read"), "bytes", n);
  report->Metric("dataflow.spill_write_ms", per_unit("spill.write_ms.sum"),
                 "ms", n);
  report->Metric("dataflow.spill_read_ms", per_unit("spill.read_ms.sum"), "ms",
                 n);
  report->Metric("dataflow.partition_read_ms",
                 per_unit("engine.partition_read_ms.sum"), "ms", n);
  report->Metric("dataflow.cache_hit_rate",
                 ratio(Get(d, "cache.read_hits"),
                       Get(d, "cache.read_hits") + Get(d, "cache.read_misses")),
                 "ratio", n);
  report->Metric("dataflow.prefetch_hit_rate",
                 ratio(Get(d, "prefetch.hits"), Get(d, "prefetch.requests")),
                 "ratio", n);
  report->Metric("dataflow.integrity_blocks_verified",
                 per_unit("integrity.blocks_verified"), "count", n);
  report->Metric("dataflow.retries", per_unit("stats.retries"), "count", n);
  // MemoryManager keeps one high-water mark per engine lifetime; the
  // workloads run identical units on one engine, so it is the unit peak.
  const vista::df::MemoryManager& memory = engine->memory();
  report->Metric("dataflow.storage_peak_bytes",
                 static_cast<double>(
                     memory.Peak(vista::df::MemoryRegion::kStorage)),
                 "bytes", 1);
  report->Metric(
      "dataflow.user_peak_bytes",
      static_cast<double>(memory.Peak(vista::df::MemoryRegion::kUser)),
      "bytes", 1);

  report->Metric("serve.queue_ms.p50", m.queue_p50_ms, "ms", n);
  report->Metric("serve.queue_ms.p95", m.queue_p95_ms, "ms", n);
  report->Metric("serve.exec_ms.p50", m.exec_p50_ms, "ms", n);
  report->Metric("serve.exec_ms.p95", m.exec_p95_ms, "ms", n);
  report->Metric("serve.hit_rate", m.hit_rate, "ratio", n);
  report->Metric("serve.resume_rate", m.resume_rate, "ratio", n);
  report->Metric("serve.miss_rate", m.miss_rate, "ratio", n);
  report->Metric("serve.flops_per_query", m.flops_per_query, "count", n);
  report->Metric("serve.view_inserts", m.view_inserts, "count", n);
  report->Metric("serve.view_evictions", m.view_evictions, "count", n);
  report->Metric("serve.admission_rejects", m.admission_rejects, "count", n);
  report->Metric("loadgen.late_ms.p95", m.late_p95_ms, "ms", n);
  report->Metric("loadgen.late_ms.max", m.late_max_ms, "ms", n);
  report->Metric("obs.trace_overhead_frac", m.trace_overhead_frac, "ratio",
                 m.samples);
}

}  // namespace perfbench
