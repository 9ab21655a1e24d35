// serve-zipf-open: an open loop into FeatureTransferService (2 workers).
// One generator sends Poisson arrivals at a fixed rate; each query picks one
// of 8 registered datasets with Zipf(1) popularity, one of 8 tenants, and
// the top k in {1..4} layers of micro ResNet50, with training off. The view
// cache is capped below the working set of base views, so the hot datasets
// read it (exact hits and resumes) while the tail writes it (misses, inserts
// and evictions). This is the workload where a scheduling or cache-policy
// change shows.
//
// Datasets are small (100 records in 4 partitions) so that a run holds
// hundreds of queries: p95 then has dozens of samples beyond it, and
// run-to-run spread stays within the benchmark's bounds.
#include <chrono>
#include <cmath>
#include <thread>

#include "dl/model_zoo.h"
#include "features/synthetic.h"
#include "harness.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using namespace vista;  // NOLINT

constexpr int kDatasets = 8;
constexpr int64_t kRecordsPerDataset = 100;
constexpr int kStructFeatures = 12;
constexpr int kPartitions = 4;
constexpr int kTenants = 8;
constexpr int kMaxLayers = 4;
constexpr int kWorkers = 2;
constexpr int64_t kViewCacheBytes = int64_t{1200} << 10;
/// Arrival rate, a quarter of the rate at which this set-up saturates on a
/// 4-core machine (see perfbench/README.md): the margin absorbs the host
/// slowing down without the queue taking over.
constexpr double kRatePerSecond = 15.0;
/// Latency limit for slo_attainment, from the scheduled send time.
constexpr double kSloMs = 75.0;
/// Open-loop traffic before the measured window fills the view cache.
constexpr double kWarmupSeconds = 3.0;

struct Setup {
  std::unique_ptr<df::Engine> engine;
  std::unique_ptr<dl::CnnModel> model;
  std::unique_ptr<serve::FeatureTransferService> service;
  /// Top kMaxLayers layer indices, ascending.
  std::vector<int> layers;
  std::vector<int64_t> records;
};

Result<std::unique_ptr<Setup>> MakeSetup(const Args& args, SpanLog* log) {
  const uint64_t trace = log->NextId();
  auto s = std::make_unique<Setup>();
  s->engine = std::make_unique<df::Engine>(BaseEngineConfig(args));
  VISTA_ASSIGN_OR_RETURN(dl::CnnArchitecture arch, dl::MicroResNet50Arch());
  VISTA_ASSIGN_OR_RETURN(s->model, InstantiateModel(arch, log, trace));
  VISTA_ASSIGN_OR_RETURN(s->layers, arch.TopLayers(kMaxLayers));

  serve::ServiceConfig config;
  config.num_workers = kWorkers;
  config.view_cache_bytes = kViewCacheBytes;
  config.executor.num_partitions = kPartitions;
  config.executor.train_models = false;
  VISTA_ASSIGN_OR_RETURN(
      s->service,
      Traced(log, "FeatureTransferService::Create", trace, [&] {
        return serve::FeatureTransferService::Create(s->engine.get(), config);
      }));
  VISTA_RETURN_IF_ERROR(
      Traced(log, "FeatureTransferService::RegisterModel", trace, [&] {
        return s->service->RegisterModel("resnet50", s->model.get());
      }));
  for (int d = 0; d < kDatasets; ++d) {
    feat::MultimodalDatasetSpec spec;
    spec.num_records = kRecordsPerDataset;
    spec.num_struct_features = kStructFeatures;
    spec.image_size = 32;
    spec.seed = args.seed * kDatasets + d;
    VISTA_ASSIGN_OR_RETURN(
        Tables tables,
        MakeTables(s->engine.get(), spec, kPartitions, log, trace));
    s->records.push_back(tables.t_img.num_records());
    VISTA_RETURN_IF_ERROR(
        Traced(log, "FeatureTransferService::RegisterDataset", trace, [&] {
          return s->service->RegisterDataset("ds" + std::to_string(d),
                                             tables.t_str, tables.t_img);
        }));
  }
  return s;
}

/// One planned query of the open loop.
struct Query {
  double at = 0;  // Seconds after the phase starts.
  int tenant = 0;
  int dataset = 0;
  int k = 1;
};

/// What happened to one query.
struct Outcome {
  double scheduled = 0;
  double sent = 0;
  double done = 0;
  bool submitted = false;
  bool ok = false;
  bool cache_hit = false;
  int resumed_from_layer = -1;
  int64_t flops = 0;
  double queue_s = 0;
  double exec_s = 0;
  std::string error;
};

/// The query stream of `seconds` of traffic. The mix is stratified: every
/// stream of the same length holds the same multiset of (dataset, k,
/// tenant) — datasets in exact Zipf(1) proportions, k and tenant cycling
/// within each dataset — and the seed only shuffles it and draws the
/// Poisson arrival times, so runs differ in order and timing, not in work.
std::vector<Query> PlanQueries(Rng* rng, double seconds) {
  const int64_t n = std::llround(kRatePerSecond * seconds);
  double harmonic = 0;
  for (int d = 0; d < kDatasets; ++d) harmonic += 1.0 / (d + 1);
  std::vector<Query> plan;
  for (int d = 0; d < kDatasets; ++d) {
    const int64_t share =
        d + 1 == kDatasets
            ? std::max<int64_t>(0, n - static_cast<int64_t>(plan.size()))
            : std::llround(static_cast<double>(n) / (d + 1) / harmonic);
    for (int64_t j = 0; j < share; ++j) {
      Query q;
      q.dataset = d;
      q.k = 1 + static_cast<int>(j % kMaxLayers);
      q.tenant = static_cast<int>((j / kMaxLayers + d) % kTenants);
      plan.push_back(q);
    }
  }
  for (size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[rng->Next() % i]);
  }
  double at = 0;
  for (Query& q : plan) {
    at += rng->Exponential(kRatePerSecond);
    q.at = at;
  }
  return plan;
}

/// Sends `plan` on its schedule from this thread, then drains the service.
/// Each query's latency runs from its scheduled send time, so a stall also
/// charges the queries it delays.
std::vector<Outcome> SendOpenLoop(Setup* s, const std::vector<Query>& plan,
                                  SpanLog* log) {
  using Clock = std::chrono::steady_clock;
  std::vector<Outcome> out(plan.size());
  std::mutex mu;
  const Clock::time_point start = Clock::now();
  const double start_s = Now();
  for (size_t i = 0; i < plan.size(); ++i) {
    const Query& q = plan[i];
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(q.at)));
    serve::ServeRequest req;
    req.tenant = "tenant" + std::to_string(q.tenant);
    req.model = "resnet50";
    req.dataset = "ds" + std::to_string(q.dataset);
    req.workload.cnn = dl::KnownCnn::kResNet50;
    req.workload.layers.assign(s->layers.end() - q.k, s->layers.end());
    req.train_models = false;
    const uint64_t trace = log->enabled() ? log->NextId() : 0;
    const uint64_t query_span = log->enabled() ? log->NextId() : 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      out[i].scheduled = start_s + q.at;
      out[i].sent = Now();
    }
    auto on_done = [&out, &mu, i, log, trace,
                    query_span](const serve::ServeResult& r) {
      const double done = Now();
      std::lock_guard<std::mutex> lock(mu);
      Outcome& o = out[i];
      o.done = done;
      o.ok = r.status.ok();
      o.error = r.status.ok() ? "" : r.status.ToString();
      o.cache_hit = r.cache_hit;
      o.resumed_from_layer = r.resumed_from_layer;
      o.flops = r.inference_flops;
      o.queue_s = r.queue_seconds;
      o.exec_s = r.exec_seconds;
      if (log->enabled()) {
        // The queue and exec spans are placed from the service's own
        // durations, ending at the completion callback.
        log->Add(Span{"query", trace, query_span, 0, o.scheduled, done});
        log->Add(Span{"serve.queue", trace, log->NextId(), query_span,
                      done - r.exec_seconds - r.queue_seconds,
                      done - r.exec_seconds});
        log->Add(Span{"serve.exec", trace, log->NextId(), query_span,
                      done - r.exec_seconds, done});
      }
    };
    const double submit_start = Now();
    Status st = s->service->Submit(std::move(req), on_done);
    if (log->enabled()) {
      log->Add(Span{"FeatureTransferService::Submit", trace, log->NextId(),
                    query_span, submit_start, Now()});
    }
    std::lock_guard<std::mutex> lock(mu);
    out[i].submitted = st.ok();
    if (!st.ok()) out[i].error = st.ToString();
  }
  s->service->Drain();
  s->service->Resume();
  return out;
}

/// Exact per-query latencies (ms, from the scheduled send) of queries that
/// completed OK.
std::vector<double> LatenciesMs(const std::vector<Outcome>& outcomes) {
  std::vector<double> ms;
  for (const Outcome& o : outcomes) {
    if (o.ok) ms.push_back((o.done - o.scheduled) * 1e3);
  }
  return ms;
}

/// Output checks: every admitted query returns OK, and its FLOPs are
/// exactly the Staged chain above the layer it resumed from.
void CheckOutcomes(const Setup& s, const std::vector<Query>& plan,
                   const std::vector<Outcome>& outcomes, Report* report) {
  const dl::CnnArchitecture& arch = s.model->arch();
  const int64_t top_flops = arch.layer(s.layers.back()).cumulative_flops;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    report->Attempt();
    if (!o.submitted || !o.ok) report->Failed();
    if (!o.submitted) continue;
    if (!o.ok) {
      report->Fail("admitted query " + std::to_string(i) + " failed: " +
                   o.error);
      continue;
    }
    const int base = s.layers[kMaxLayers - plan[i].k];
    const int from = o.resumed_from_layer;
    const int64_t from_flops = from < 0 ? 0 : arch.layer(from).cumulative_flops;
    const int64_t expected =
        (top_flops - from_flops) * s.records[plan[i].dataset];
    if (from > base || o.cache_hit != (from >= 0) || o.flops != expected) {
      report->Fail("query " + std::to_string(i) + " ran " +
                   std::to_string(o.flops) + " FLOPs resuming from layer " +
                   std::to_string(from) + ", expected " +
                   std::to_string(expected));
    }
  }
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  SpanLog log;
  log.set_enabled(args.trace);
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> s = RepeatSetup<Setup>(
      [&] { return MakeSetup(args, &log); }, &setup_seconds, report);
  if (s == nullptr) return;
  report->Note("open loop: " + std::to_string(kRatePerSecond) +
               " q/s Poisson, SLO " + std::to_string(kSloMs) + " ms, " +
               std::to_string(kDatasets) + " datasets x " +
               std::to_string(kRecordsPerDataset) +
               " records, view cache cap " + std::to_string(kViewCacheBytes) +
               " bytes, " + std::to_string(kWorkers) + " workers");

  Rng rng(args.seed);
  // The warm-up runs untraced in both modes.
  log.set_enabled(false);
  SendOpenLoop(s.get(), PlanQueries(&rng, kWarmupSeconds), &log);

  df::Engine* engine = s->engine.get();
  if (!args.trace) {
    const std::vector<Query> plan = PlanQueries(&rng, args.seconds);
    const std::vector<Outcome> outcomes = SendOpenLoop(s.get(), plan, &log);
    CheckOutcomes(*s, plan, outcomes, report);
    // A query is the job of this workload; its execution excludes the
    // time it waited in the service's queue.
    std::vector<double> exec_s;
    for (const Outcome& o : outcomes) {
      if (o.ok) exec_s.push_back(o.exec_s);
    }
    EmitEndToEnd(setup_seconds, exec_s, LatenciesMs(outcomes),
                 static_cast<int64_t>(plan.size()), kSloMs, report);
    return;
  }

  // Traced run: the same query stream twice, first untraced for the
  // overhead baseline, then traced with per-layer profiling (toggled only
  // while the service is idle).
  const std::vector<Query> plan = PlanQueries(&rng, args.seconds / 2);
  const std::vector<Outcome> base_out = SendOpenLoop(s.get(), plan, &log);
  CheckOutcomes(*s, plan, base_out, report);

  s->model->EnableProfiling(&engine->metrics());
  log.set_enabled(true);
  const Values before = Probe(engine);
  const std::vector<Outcome> outcomes = SendOpenLoop(s.get(), plan, &log);
  LayerMetrics m;
  m.deltas = Delta(before, Probe(engine));
  log.set_enabled(false);
  s->model->EnableProfiling(nullptr);
  CheckOutcomes(*s, plan, outcomes, report);

  std::vector<double> queue_ms, exec_ms, late_ms;
  int64_t hits = 0, resumes = 0, misses = 0;
  double flops = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    late_ms.push_back((o.sent - o.scheduled) * 1e3);
    if (!o.ok) continue;
    queue_ms.push_back(o.queue_s * 1e3);
    exec_ms.push_back(o.exec_s * 1e3);
    const int base = s->layers[kMaxLayers - plan[i].k];
    if (!o.cache_hit) {
      ++misses;
    } else if (o.resumed_from_layer == base) {
      ++hits;
    } else {
      ++resumes;
    }
    flops += static_cast<double>(o.flops);
  }
  const double completed = static_cast<double>(queue_ms.size());
  m.units = static_cast<int64_t>(queue_ms.size());
  m.samples = m.units;
  m.queue_p50_ms = Median(queue_ms);
  m.queue_p95_ms = Quantile(queue_ms, 0.95);
  m.exec_p50_ms = Median(exec_ms);
  m.exec_p95_ms = Quantile(exec_ms, 0.95);
  m.hit_rate = hits / std::max(completed, 1.0);
  m.resume_rate = resumes / std::max(completed, 1.0);
  m.miss_rate = misses / std::max(completed, 1.0);
  m.flops_per_query = flops / std::max(completed, 1.0);
  m.view_inserts = Get(m.deltas, "serve.view_cache.inserts");
  m.view_evictions = Get(m.deltas, "serve.view_cache.evictions");
  m.admission_rejects = Get(m.deltas, "serve.admission_rejects");
  m.late_p95_ms = Quantile(late_ms, 0.95);
  m.late_max_ms = Quantile(late_ms, 1.0);
  m.trace_overhead_frac =
      Median(LatenciesMs(outcomes)) / Median(LatenciesMs(base_out)) - 1;
  report->Note("cache: " + std::to_string(hits) + " exact hits, " +
               std::to_string(resumes) + " resumes, " +
               std::to_string(misses) + " misses, " +
               std::to_string(static_cast<int64_t>(m.view_evictions)) +
               " evictions");
  EmitLayerMetrics(m, engine, report);
  if (!args.trace_out.empty()) {
    Status st = log.Write(args.trace_out);
    if (!st.ok()) report->Fail(st.ToString());
  }
}

}  // namespace perfbench
