// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// convolution, partial inference, join operators, record serialization,
// and the Vista optimizer itself.
//
// `--smoke` skips google-benchmark and runs the kernel smoke suite
// instead: naive-vs-packed GEMM on a conv-shaped 256x1152x196 problem,
// the implicit-GEMM convs' throughput against that GEMM's,
// batched-inference thread scaling, the batch-major vs one-image speedup,
// the transfer featurizer against memcpy, and the scratch-arena reuse
// counters, written as a machine-readable report (default
// BENCH_smoke_kernels.json, override with `--out <path>`) — the input to
// the CI bench-regression gate (scripts/bench_regression.py).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "dataflow/engine.h"
#include "dl/cnn.h"
#include "dl/model_zoo.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "dl/dag.h"
#include "features/hog.h"
#include "oracle/kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernel.h"
#include "tensor/quant.h"
#include "tensor/scratch.h"
#include "vista/optimizer.h"

namespace vista {
namespace {

void BM_MicroCnnInference(benchmark::State& state) {
  auto arch = dl::MicroAlexNetArch();
  auto model = dl::CnnModel::Instantiate(*arch, 3);
  Rng rng(2);
  Tensor img = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  for (auto _ : state) {
    auto out = model->Run(img);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MicroCnnInference);

void BM_PartialInferenceTopLayer(benchmark::State& state) {
  // Staged execution's inner loop: one hop between adjacent fc layers.
  auto arch = dl::MicroAlexNetArch();
  auto model = dl::CnnModel::Instantiate(*arch, 3);
  Rng rng(2);
  Tensor img = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  Tensor fc7 = model->RunTo(img, 6).value();
  for (auto _ : state) {
    auto out = model->RunRange(fc7, 7, 7);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartialInferenceTopLayer);

std::vector<df::Record> BenchRecords(int n, double density) {
  Rng rng(7);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features = {static_cast<float>(i % 2), 1.f, 2.f};
    Tensor t(Shape{512});
    for (int64_t j = 0; j < 512; ++j) {
      if (rng.NextBool(density)) t.set(j, static_cast<float>(rng.NextGaussian()));
    }
    r.features.Append(std::move(t));
    records.push_back(std::move(r));
  }
  return records;
}

void BM_RecordSerializeSparse(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  auto records = BenchRecords(64, density);
  for (auto _ : state) {
    std::vector<uint8_t> buf;
    for (const auto& r : records) df::SerializeRecord(r, &buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_RecordSerializeSparse)->Arg(13)->Arg(36)->Arg(100);

void BM_ShuffleHashJoin(benchmark::State& state) {
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  df::Engine engine(config);
  auto left = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  auto right = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  for (auto _ : state) {
    auto joined = engine.Join(left, right, df::JoinStrategy::kShuffleHash, 8);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_ShuffleHashJoin);

void BM_BroadcastJoin(benchmark::State& state) {
  df::EngineConfig config;
  config.cpus_per_worker = 4;
  df::Engine engine(config);
  auto left = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  auto right = engine.MakeTable(BenchRecords(2000, 0.1), 8).value();
  for (auto _ : state) {
    auto joined = engine.Join(left, right, df::JoinStrategy::kBroadcast, 8);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BroadcastJoin);

void BM_OptimizerLatency(benchmark::State& state) {
  auto roster = Roster::Default().value();
  const RosterEntry* entry = roster.Lookup(dl::KnownCnn::kResNet50).value();
  auto workload =
      TransferWorkload::TopLayers(roster, dl::KnownCnn::kResNet50, 5).value();
  DataStats stats;
  stats.num_records = 200000;
  stats.num_struct_features = 200;
  SystemEnv env;
  for (auto _ : state) {
    auto d = OptimizeFeatureTransfer(env, *entry, workload, stats);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_OptimizerLatency);


void BM_Conv2DGemm32(benchmark::State& state) {
  Rng rng(4);
  Tensor input = Tensor::RandomGaussian(Shape{16, 32, 32}, &rng);
  Tensor w = Tensor::RandomGaussian(Shape{16, 16, 3, 3}, &rng);
  Tensor b(Shape{16});
  for (auto _ : state) {
    auto out = Conv2DGemmImplicit(input, w, b, 1, 1, 1, /*relu=*/false);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Conv2DGemm32);

void BM_HogDescriptor(benchmark::State& state) {
  Rng rng(5);
  Tensor img = Tensor::RandomGaussian(Shape{3, 32, 32}, &rng);
  for (auto _ : state) {
    auto f = feat::HogFeatures(img);
    benchmark::DoNotOptimize(f);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HogDescriptor);

// Observability overhead: the per-event cost the instrumented hot paths
// pay. Counter adds must stay in the nanoseconds; a ScopedSpan is a mutex
// lock + clock reads, so it belongs on operators, not per-record loops.
void BM_ObsCounterAdd(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter* c = registry.counter("bench.counter");
  for (auto _ : state) {
    c->Add(1);
  }
  benchmark::DoNotOptimize(c);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram* h = registry.histogram("bench.latency_ms");
  double v = 0.013;
  for (auto _ : state) {
    h->Record(v);
    v = v * 1.37 + 0.001;
    if (v > 1000.0) v = 0.013;
  }
  benchmark::DoNotOptimize(h);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsScopedLatency(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram* h = registry.histogram("bench.scoped_ms");
  for (auto _ : state) {
    obs::ScopedLatency latency(h);
    benchmark::DoNotOptimize(latency);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedLatency);

void BM_ObsScopedSpan(benchmark::State& state) {
  obs::TraceCollector collector;
  for (auto _ : state) {
    obs::ScopedSpan span(&collector, "bench", "micro");
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpan);

void BM_ObsScopedSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    obs::ScopedSpan span(nullptr, "bench", "micro");
    benchmark::DoNotOptimize(span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedSpanDisabled);

void BM_DagStagedPlanner(benchmark::State& state) {
  auto arch = dl::MicroDenseNetDag().value();
  for (auto _ : state) {
    auto plan = dl::PlanStagedDag(arch, {2, 4, 5});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_DagStagedPlanner);

/// Median-of-reps wall time of `fn`, in milliseconds.
template <typename Fn>
double TimeMs(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedSeconds() * 1e3);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// The kernel smoke suite. Latency numbers are machine-dependent and only
/// reported; the regression gate compares the machine-independent ratios
/// (speedup, efficiency) so a slower CI runner does not fail the build.
int RunKernelSmoke(int argc, char** argv) {
  bench::Banner("kernels", "packed GEMM and batched inference smoke suite");
  bench::BenchReporter reporter(
      "micro_kernels",
      "smoke: naive vs packed GEMM (256x1152x196), implicit conv "
      "efficiency, batched inference scaling, featurize vs memcpy, scratch "
      "arena reuse");
  obs::Registry registry;
  // fp32 packed time and throughput on the conv-shaped GEMM, and the int8
  // kernel's throughput on it: the int8 and conv sections below report
  // theirs as ratios against these.
  double fp32_packed_ms = 0.0;
  double gemm_gflops = 0.0;
  double gemm_int8_gops = 0.0;

  // --- Packed vs naive GEMM on the conv-shaped problem: 256 filters over
  // a 128-channel 3x3 patch matrix (k = 1152) at 14x14 output (n = 196).
  {
    const int64_t m = 256, k = 1152, n = 196;
    Rng rng(1);
    Tensor a = Tensor::RandomGaussian(Shape{m, k}, &rng);
    Tensor b = Tensor::RandomGaussian(Shape{k, n}, &rng);
    std::vector<float> c(m * n);
    KernelScratch& scratch = KernelScratch::ThreadLocal();
    const auto packed = [&] {
      GemmPacked(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                 GemmEpilogue{}, &scratch);
      benchmark::DoNotOptimize(c.data());
    };
    (void)oracle::MatMul(a, b);  // Warm-up (page-in, arena growth).
    packed();
    const double naive_ms =
        TimeMs(5, [&] { benchmark::DoNotOptimize(oracle::MatMul(a, b)); });
    const double packed_ms = TimeMs(15, packed);
    const int64_t flops_per_call = 2 * m * n * k;
    const double gflops = static_cast<double>(flops_per_call) /
                          (packed_ms * 1e-3) / 1e9;
    const double speedup = naive_ms / packed_ms;
    registry.gauge("gemm_gflops")->Set(static_cast<int64_t>(gflops));
    fp32_packed_ms = packed_ms;
    gemm_gflops = gflops;

    obs::Json gemm = obs::Json::Object();
    gemm.Set("m", obs::Json::Int(m));
    gemm.Set("k", obs::Json::Int(k));
    gemm.Set("n", obs::Json::Int(n));
    gemm.Set("naive_ms", obs::Json::Num(naive_ms));
    gemm.Set("packed_ms", obs::Json::Num(packed_ms));
    gemm.Set("speedup", obs::Json::Num(speedup));
    gemm.Set("gflops", obs::Json::Num(gflops));
    reporter.AddSection("gemm_256x1152x196", std::move(gemm));
    std::printf("gemm 256x1152x196: naive %.2f ms, packed %.2f ms "
                "(%.2fx, %.1f GFLOP/s)\n",
                naive_ms, packed_ms, speedup, gflops);
  }

  // --- Quantized GEMM on the same conv shape: symmetric int8 inputs, the
  // per-row dequant epilogue fused. The gate tracks the machine-independent
  // speedup over the fp32 packed kernel and the accuracy of the dequantized
  // product against the fp32 product of the same real values.
  {
    const int64_t m = 256, k = 1152, n = 196;
    Rng rng(3);
    Tensor a = Tensor::RandomGaussian(Shape{m, k}, &rng);
    Tensor b = Tensor::RandomGaussian(Shape{k, n}, &rng);
    const float a_scale = SymmetricScale(MaxAbs(a.data(), a.num_elements()));
    const float b_scale = SymmetricScale(MaxAbs(b.data(), b.num_elements()));
    std::vector<int8_t> a8(m * k), b8(k * n);
    QuantizeSymmetric(a.data(), m * k, a_scale, a8.data());
    QuantizeSymmetric(b.data(), k * n, b_scale, b8.data());
    const std::vector<float> scales(m, a_scale * b_scale);
    std::vector<float> c(m * n);
    GemmInt8Epilogue epilogue;
    epilogue.scale = scales.data();
    KernelScratch& scratch = KernelScratch::ThreadLocal();
    const auto run = [&] {
      GemmPackedInt8(m, n, k, a8.data(), k, b8.data(), n, c.data(), n,
                     epilogue, &scratch);
      benchmark::DoNotOptimize(c.data());
    };
    run();  // Warm-up.
    const double int8_ms = TimeMs(15, run);
    const double gops =
        static_cast<double>(2 * m * n * k) / (int8_ms * 1e-3) / 1e9;
    registry.gauge("gemm_gops_int8")->Set(static_cast<int64_t>(gops));
    const double speedup_vs_fp32 = fp32_packed_ms / int8_ms;
    gemm_int8_gops = gops;

    auto ref = oracle::MatMul(a, b);
    double err_sq = 0.0, ref_sq = 0.0;
    for (int64_t i = 0; i < m * n; ++i) {
      const double d = c[i] - ref->at(i);
      err_sq += d * d;
      ref_sq += static_cast<double>(ref->at(i)) * ref->at(i);
    }
    const double rel_l2_error = std::sqrt(err_sq / ref_sq);
    const double kErrorBound = 0.05;

    obs::Json q = obs::Json::Object();
    q.Set("m", obs::Json::Int(m));
    q.Set("k", obs::Json::Int(k));
    q.Set("n", obs::Json::Int(n));
    q.Set("kernel", obs::Json::Str(GemmInt8KernelName()));
    q.Set("int8_ms", obs::Json::Num(int8_ms));
    q.Set("fp32_packed_ms", obs::Json::Num(fp32_packed_ms));
    q.Set("gops", obs::Json::Num(gops));
    q.Set("speedup_vs_fp32", obs::Json::Num(speedup_vs_fp32));
    q.Set("rel_l2_error", obs::Json::Num(rel_l2_error));
    q.Set("accuracy_within_bound",
          obs::Json::Num(rel_l2_error <= kErrorBound ? 1.0 : 0.0));
    reporter.AddSection("gemm_int8_256x1152x196", std::move(q));
    std::printf("gemm int8 256x1152x196 [%s]: %.2f ms (%.2fx vs fp32 "
                "packed, %.1f GOP/s, rel L2 err %.4f)\n",
                GemmInt8KernelName(), int8_ms, speedup_vs_fp32, gops,
                rel_l2_error);
  }

  // --- Implicit-GEMM convolution on a VGG-style 3x3 conv (64 ch, 112x112,
  // 48 filters: a large-spatial shape whose 29 MB patch matrix the packer
  // gathers without writing). conv_efficiency is the conv's GFLOP/s over
  // the packed GEMM's on the conv-shaped problem above, both on this one
  // thread. bit_identical (0/1) requires the output to equal GemmPacked
  // over the materialized expansion (oracle::Conv2DExplicitGemm) exactly;
  // that reference is computed once and not timed.
  const int64_t conv_c = 64, conv_hw = 112, conv_f = 48;
  const int conv_k = 3, conv_s = 1, conv_p = 1;
  const double conv_flops = static_cast<double>(
      Conv2DFlops(conv_c, conv_f, conv_hw, conv_hw, conv_k));
  Rng conv_rng(6);
  Tensor conv_in =
      Tensor::RandomGaussian(Shape{conv_c, conv_hw, conv_hw}, &conv_rng);
  Tensor conv_w = Tensor::RandomGaussian(
      Shape{conv_f, conv_c, conv_k, conv_k}, &conv_rng);
  Tensor conv_b = Tensor::RandomGaussian(Shape{conv_f}, &conv_rng);
  const auto same_bytes = [](const Result<Tensor>& x,
                             const Result<Tensor>& y) {
    return x.ok() && y.ok() && x->shape() == y->shape() &&
           std::memcmp(x->data(), y->data(),
                       static_cast<size_t>(x->num_bytes())) == 0;
  };
  {
    const auto conv = [&] {
      return Conv2DGemmImplicit(conv_in, conv_w, conv_b, conv_s, conv_p, 1,
                                /*relu=*/false);
    };
    const bool identical =
        same_bytes(conv(), oracle::Conv2DExplicitGemm(
                               conv_in, conv_w, conv_b, conv_s, conv_p, 1,
                               /*relu=*/false));
    const double conv_ms =
        TimeMs(9, [&] { benchmark::DoNotOptimize(conv()); });
    const double gflops = conv_flops / (conv_ms * 1e-3) / 1e9;
    const double efficiency = gflops / gemm_gflops;
    obs::Json ic = obs::Json::Object();
    ic.Set("channels", obs::Json::Int(conv_c));
    ic.Set("hw", obs::Json::Int(conv_hw));
    ic.Set("filters", obs::Json::Int(conv_f));
    ic.Set("implicit_ms", obs::Json::Num(conv_ms));
    ic.Set("gflops", obs::Json::Num(gflops));
    ic.Set("conv_efficiency", obs::Json::Num(efficiency));
    ic.Set("bit_identical", obs::Json::Num(identical ? 1.0 : 0.0));
    reporter.AddSection("implicit_conv", std::move(ic));
    std::printf("implicit conv 64x112x112 k3: %.2f ms (%.1f GFLOP/s, "
                "efficiency %.2f of the packed GEMM, bit-identical %d)\n",
                conv_ms, gflops, efficiency, identical ? 1 : 0);
  }

  // --- The int8 implicit conv on the same shape: quantizes while it
  // gathers. conv_efficiency is its GOP/s over the int8 GEMM's above;
  // bit_identical compares it with quantizing the materialized expansion
  // (oracle::Conv2DExplicitGemmInt8).
  {
    auto qw = QuantizeWeightsPerChannel(conv_w);
    const float act_scale =
        SymmetricScale(MaxAbs(conv_in.data(), conv_in.num_elements()));
    const auto conv = [&] {
      return Conv2DGemmInt8(conv_in, *qw, conv_b, conv_s, conv_p, 1,
                            /*relu=*/false, act_scale);
    };
    const bool identical =
        same_bytes(conv(), oracle::Conv2DExplicitGemmInt8(
                               conv_in, *qw, conv_b, conv_s, conv_p, 1,
                               /*relu=*/false, act_scale));
    const double conv_ms =
        TimeMs(9, [&] { benchmark::DoNotOptimize(conv()); });
    const double gops = conv_flops / (conv_ms * 1e-3) / 1e9;
    const double efficiency = gops / gemm_int8_gops;
    obs::Json iq = obs::Json::Object();
    iq.Set("kernel", obs::Json::Str(GemmInt8KernelName()));
    iq.Set("implicit_ms", obs::Json::Num(conv_ms));
    iq.Set("gops", obs::Json::Num(gops));
    iq.Set("conv_efficiency", obs::Json::Num(efficiency));
    iq.Set("bit_identical", obs::Json::Num(identical ? 1.0 : 0.0));
    reporter.AddSection("implicit_conv_int8", std::move(iq));
    std::printf("implicit conv int8 64x112x112 k3 [%s]: %.2f ms (%.1f "
                "GOP/s, efficiency %.2f of the int8 GEMM, bit-identical "
                "%d)\n",
                GemmInt8KernelName(), conv_ms, gops, efficiency,
                identical ? 1 : 0);
  }

  // --- Batched partial inference: MicroAlexNet images, serial vs a
  // 4-thread pool. RunRangeBatch hands the pool one task per group of
  // images (64 from fc6 on), so the batch holds 4 groups per thread.
  // Efficiency is reported both raw (speedup / threads) and normalized to
  // the cores actually available — on a 1-2 core CI runner the raw number
  // cannot approach 1 no matter how good the scheduling is.
  {
    auto arch = dl::MicroAlexNetArch();
    auto model = dl::CnnModel::Instantiate(*arch, 3);
    model->EnableProfiling(&registry);  // dl.forward_ms.* + dl.flops.*
    const int threads = 4;
    int64_t group = 1;
    for (const dl::LayerStat& layer : arch->layers()) {
      group = std::max(group, layer.group_images);
    }
    const int64_t count = 4 * threads * group;
    Rng rng(2);
    std::vector<Tensor> images;
    for (int64_t i = 0; i < count; ++i) {
      images.push_back(Tensor::RandomGaussian(Shape{3, 32, 32}, &rng));
    }
    const int last = arch->num_layers() - 1;
    (void)model->RunRangeBatch(images, 0, last);  // Warm-up.
    const double serial_ms = TimeMs(5, [&] {
      benchmark::DoNotOptimize(model->RunRangeBatch(images, 0, last));
    });
    ThreadPool pool(threads);
    dl::CnnOptions opts;
    opts.pool = &pool;
    (void)model->RunRangeBatch(images, 0, last, opts);
    const double parallel_ms = TimeMs(5, [&] {
      benchmark::DoNotOptimize(model->RunRangeBatch(images, 0, last, opts));
    });
    const double speedup = serial_ms / parallel_ms;
    const int available =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    const int effective = std::min(threads, available);
    obs::Json batched = obs::Json::Object();
    batched.Set("images", obs::Json::Int(count));
    batched.Set("group_images", obs::Json::Int(group));
    batched.Set("threads", obs::Json::Int(threads));
    batched.Set("available_cores", obs::Json::Int(available));
    batched.Set("serial_ms", obs::Json::Num(serial_ms));
    batched.Set("parallel_ms", obs::Json::Num(parallel_ms));
    batched.Set("speedup", obs::Json::Num(speedup));
    batched.Set("efficiency_raw", obs::Json::Num(speedup / threads));
    batched.Set("efficiency_normalized",
                obs::Json::Num(speedup / effective));
    reporter.AddSection("batched_inference", std::move(batched));
    std::printf("batched inference x%lld: serial %.2f ms, %d threads %.2f "
                "ms (%.2fx, efficiency %.2f raw / %.2f over %d cores)\n",
                static_cast<long long>(count), serial_ms, threads,
                parallel_ms, speedup, speedup / threads, speedup / effective,
                effective);
  }

  // --- Batch-major inference on one thread: 256 MicroResNet50 conv4_6
  // outputs through conv5_1..fc6 as one RunRangeBatch (groups of 16, one
  // GEMM per conv per group) vs 256 one-image RunRange calls. The speedup
  // is the GEMM-shape win; bit_identical (0/1) requires every output to
  // match its one-image run byte for byte.
  {
    auto arch = dl::MicroResNet50Arch();
    auto model = dl::CnnModel::Instantiate(*arch, 5);
    const int from = arch->FindLayer("conv5_1").value();
    const int last = arch->num_layers() - 1;
    Rng rng(8);
    std::vector<Tensor> images;
    for (int i = 0; i < 256; ++i) {
      images.push_back(Tensor::RandomGaussian(Shape{3, 32, 32}, &rng));
    }
    const std::vector<Tensor> inputs =
        model->RunRangeBatch(images, 0, from - 1).value();
    const auto batched = [&] {
      return model->RunRangeBatch(inputs, from, last).value();
    };
    const auto one_by_one = [&] {
      std::vector<Tensor> out;
      for (const Tensor& x : inputs) {
        out.push_back(model->RunRange(x, from, last).value());
      }
      return out;
    };
    const std::vector<Tensor> want = one_by_one();  // Warm-up + operands.
    const std::vector<Tensor> got = batched();
    bool identical = want.size() == got.size();
    for (size_t i = 0; identical && i < want.size(); ++i) {
      identical = want[i].shape() == got[i].shape() &&
                  std::memcmp(want[i].data(), got[i].data(),
                              static_cast<size_t>(want[i].num_bytes())) == 0;
    }
    const double one_ms =
        TimeMs(5, [&] { benchmark::DoNotOptimize(one_by_one()); });
    const double batch_ms =
        TimeMs(5, [&] { benchmark::DoNotOptimize(batched()); });
    const double speedup = one_ms / batch_ms;
    obs::Json bm = obs::Json::Object();
    bm.Set("images", obs::Json::Int(256));
    bm.Set("group_images", obs::Json::Int(arch->layer(from).group_images));
    bm.Set("one_image_ms", obs::Json::Num(one_ms));
    bm.Set("batched_ms", obs::Json::Num(batch_ms));
    bm.Set("speedup", obs::Json::Num(speedup));
    bm.Set("bit_identical", obs::Json::Num(identical ? 1.0 : 0.0));
    reporter.AddSection("batch_major", std::move(bm));
    std::printf("batch-major conv5_1..fc6 x256: one image at a time %.2f "
                "ms, grouped %.2f ms (%.2fx, bit-identical %d)\n",
                one_ms, batch_ms, speedup, identical ? 1 : 0);
  }

  // --- Featurize: the downstream extractor's g_l
  // (dl::AppendTransferFeatures) over 2048 records into one reused buffer,
  // against a memcpy of the same input floats. copy_efficiency = memcpy
  // time / featurize time, so 1 means featurizing a record costs what
  // copying its map costs. At 256x2x2 (MicroResNet50 conv5_x) the map is
  // at the target resolution and g_l is the identity; 24x3x3 (MicroAlexNet
  // conv5) is pooled to 24x2x2 over ragged 1- and 2-wide windows.
  {
    obs::Json featurize = obs::Json::Object();
    const int records = 2048;
    featurize.Set("records", obs::Json::Int(records));
    const int available =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    featurize.Set("available_cores", obs::Json::Int(available));
    const std::pair<std::string, Shape> cases[] = {
        {"256x2x2", Shape{256, 2, 2}}, {"24x3x3", Shape{24, 3, 3}}};
    for (const auto& [dims, shape] : cases) {
      Rng rng(13);
      std::vector<Tensor> maps;
      for (int i = 0; i < records; ++i) {
        maps.push_back(Tensor::RandomGaussian(shape, &rng));
      }
      const auto n = static_cast<size_t>(shape.num_elements());
      std::vector<float> x;
      std::vector<float> copy(n);
      const auto featurize_all = [&] {
        for (const Tensor& map : maps) {
          x.clear();
          (void)dl::AppendTransferFeatures(map, 2, &x);
          benchmark::DoNotOptimize(x.data());
          benchmark::ClobberMemory();
        }
      };
      const auto memcpy_all = [&] {
        for (const Tensor& map : maps) {
          std::memcpy(copy.data(), map.data(), n * sizeof(float));
          benchmark::DoNotOptimize(copy.data());
          benchmark::ClobberMemory();
        }
      };
      featurize_all();  // Warm-up: grows x once.
      memcpy_all();
      // Alternate the two so that both see the same host noise; the
      // efficiency is the median of the per-round ratios.
      std::vector<double> featurize_ms, memcpy_ms, efficiency;
      for (int round = 0; round < 15; ++round) {
        featurize_ms.push_back(TimeMs(1, featurize_all));
        memcpy_ms.push_back(TimeMs(1, memcpy_all));
        efficiency.push_back(memcpy_ms.back() / featurize_ms.back());
      }
      const auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };
      featurize.Set("featurize_ms_" + dims,
                    obs::Json::Num(median(featurize_ms)));
      featurize.Set("memcpy_ms_" + dims, obs::Json::Num(median(memcpy_ms)));
      featurize.Set("copy_efficiency_" + dims,
                    obs::Json::Num(median(efficiency)));
      std::printf("featurize %s x%d: %.3f ms, memcpy %.3f ms (copy "
                  "efficiency %.2f)\n",
                  dims.c_str(), records, median(featurize_ms),
                  median(memcpy_ms), median(efficiency));
    }
    reporter.AddSection("featurize", std::move(featurize));
  }

  // --- Scratch arena: after the runs above every kernel call must be
  // served from the warm arena (the zero-alloc contract gemm_test asserts).
  {
    KernelScratch& scratch = KernelScratch::ThreadLocal();
    obs::Json arena = obs::Json::Object();
    arena.Set("allocations", obs::Json::Int(scratch.allocations()));
    arena.Set("reuses", obs::Json::Int(scratch.reuses()));
    arena.Set("capacity_floats", obs::Json::Int(scratch.capacity_floats()));
    reporter.AddSection("scratch_arena", std::move(arena));
  }

  // Full metrics snapshot: the gemm_gflops gauge plus the per-layer
  // dl.forward_ms histograms and dl.flops counters from profiling.
  reporter.AddSection("metrics", obs::MetricsJson(registry));

  const std::string out =
      bench::FlagValue(argc, argv, "--out", "BENCH_smoke_kernels.json");
  const Status written = reporter.Write(out);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace vista

int main(int argc, char** argv) {
  if (vista::bench::HasFlag(argc, argv, "--smoke")) {
    return vista::RunKernelSmoke(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
