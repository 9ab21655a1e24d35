#include "dataflow/engine.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <unistd.h>

#include "common/flat_map.h"
#include "common/logging.h"
#include "common/stopwatch.h"

namespace vista::df {
namespace {

/// Per-source destination buckets from the first shuffle phase:
/// buckets[source][destination] -> records. A source whose read failed
/// leaves its entry empty; the engine checks statuses before merging.
using SourceBuckets = std::vector<std::vector<std::vector<Record>>>;

/// Concatenates destination bucket `j` of every source, in source-index
/// order. Sources were filled left-to-right by the serial gather this
/// replaces, so fixing the merge order here makes the parallel shuffle's
/// output bit-identical to the serial one at any thread count.
std::vector<Record> MergeDestination(SourceBuckets* sources, int64_t j) {
  size_t total = 0;
  for (const auto& s : *sources) {
    if (!s.empty()) total += s[j].size();
  }
  std::vector<Record> out;
  out.reserve(total);
  for (auto& s : *sources) {
    if (s.empty()) continue;
    for (Record& r : s[j]) out.push_back(std::move(r));
    s[j].clear();
    s[j].shrink_to_fit();
  }
  return out;
}

/// Size of destination bucket `j` summed over every source.
template <typename T>
size_t BucketSize(const std::vector<std::vector<std::vector<T>>>& sources,
                  int64_t j) {
  size_t n = 0;
  for (const auto& s : sources) {
    if (!s.empty()) n += s[j].size();
  }
  return n;
}

/// Core charge of each destination's hash build in a two-phase join, taken
/// from the phase-1 buckets: the `bytes` of the smaller side's records
/// (the right side on ties), which is the side phase 2 builds from.
template <typename T, typename BytesFn>
std::vector<int64_t> BuildCharges(
    ThreadPool* pool, const std::vector<std::vector<std::vector<T>>>& left,
    const std::vector<std::vector<std::vector<T>>>& right, int num_dest,
    BytesFn bytes) {
  std::vector<int64_t> charges(num_dest, 0);
  pool->ParallelFor(num_dest, [&](int64_t j) {
    const auto& build =
        BucketSize(right, j) <= BucketSize(left, j) ? right : left;
    for (const auto& s : build) {
      if (s.empty()) continue;
      for (const T& r : s[j]) charges[j] += bytes(r);
    }
  });
  return charges;
}

/// Core memory a join's phase 2 holds at its peak: the `slots` largest
/// build charges, since at most one build per task slot is live at once.
/// A pure function of the charges and the slots, so whether a join fits
/// its Core budget never depends on how its tasks happen to overlap.
int64_t ConcurrentCharge(std::vector<int64_t> charges, int slots) {
  std::sort(charges.begin(), charges.end(), std::greater<int64_t>());
  charges.resize(std::min<size_t>(charges.size(), slots));
  return std::accumulate(charges.begin(), charges.end(), int64_t{0});
}

std::vector<std::vector<Record>> BucketByHash(std::vector<Record> records,
                                              int num_partitions) {
  std::vector<std::vector<Record>> buckets(num_partitions);
  for (Record& r : records) {
    buckets[ShuffleHashId(r.id) % num_partitions].push_back(std::move(r));
  }
  return buckets;
}

// ---------------------------------------------------------------------------
// Late-materialization shuffle. When every input partition is resident in
// serialized form, the shuffle never decodes a record: sources are
// header-scanned into byte-range views (ScanRecord), views are bucketed and
// joined by id, and outputs are built by splicing the referenced byte
// ranges — bit-identical to decode + MergeRecords + re-encode, at memcpy
// speed and without materializing a single tensor.

/// One serialized record in place: the blob that holds it plus its
/// byte-range map. The blob pointer stays valid for the whole shuffle
/// because the input Table keeps its partitions (and their blobs) alive.
struct WireRef {
  const std::vector<uint8_t>* blob;
  SerializedRecordView view;
};

using WireSourceBuckets = std::vector<std::vector<std::vector<WireRef>>>;

/// Wire-view analog of MergeDestination: destination bucket `j` of every
/// source, concatenated in source-index order.
std::vector<WireRef> MergeWireDestination(WireSourceBuckets* sources,
                                          int64_t j) {
  size_t total = 0;
  for (const auto& s : *sources) {
    if (!s.empty()) total += s[j].size();
  }
  std::vector<WireRef> out;
  out.reserve(total);
  for (auto& s : *sources) {
    if (s.empty()) continue;
    out.insert(out.end(), s[j].begin(), s[j].end());
    s[j].clear();
    s[j].shrink_to_fit();
  }
  return out;
}

/// Pins every partition of `table` for one zero-decode pass, which reads
/// their serialized blobs in place: while pinned, no concurrent operation
/// evicts or restores them. Pins all or none: all() is false, with nothing
/// pinned, when the table is empty or some partition is not resident and
/// serialized. Unpins on destruction.
class SerializedPins {
 public:
  SerializedPins(StorageCache* cache, const Table& table)
      : cache_(cache), table_(table) {
    for (const auto& p : table.partitions) {
      if (!cache->PinSerialized(p)) {
        Unpin();
        return;
      }
      ++pinned_;
    }
  }
  ~SerializedPins() { Unpin(); }

  SerializedPins(const SerializedPins&) = delete;
  SerializedPins& operator=(const SerializedPins&) = delete;

  bool all() const { return pinned_ > 0; }

 private:
  void Unpin() {
    for (size_t i = 0; i < pinned_; ++i) cache_->Unpin(table_.partitions[i]);
    pinned_ = 0;
  }

  StorageCache* const cache_;
  const Table& table_;
  size_t pinned_ = 0;
};

/// Wire-view analog of Engine::ShuffleSources: header-scans every source
/// blob in parallel (same retryable shuffle-send fault semantics, same task
/// keys) and buckets the record views by destination hash. Wire bytes are
/// the blob sizes — exact, and free to measure.
Status ScanWireSources(ThreadPool* pool, FaultInjector* injector,
                       const RetryPolicy& policy,
                       std::atomic<int64_t>* task_retries, const Table& table,
                       uint64_t op, int side, int num_destinations,
                       const char* what, WireSourceBuckets* buckets_out,
                       int64_t* wire_bytes_out,
                       obs::Counter* c_blocks_verified,
                       obs::Counter* c_checksum_failures) {
  WireSourceBuckets& buckets = *buckets_out;
  const int ns = table.num_partitions();
  buckets.assign(ns, {});
  std::vector<Status> statuses(ns);
  std::atomic<int64_t> wire_bytes{0};
  pool->ParallelFor(ns, [&](int64_t i) {
    const uint64_t unit = ShuffleTaskUnit(op, side, i);
    auto blob = table.partitions[i]->blob();
    if (!blob.ok()) {
      statuses[i] = blob.status();
      return;
    }
    // Verify the blob's CRC before the header scan walks it: a rotted
    // length field would otherwise let ScanRecord read out of bounds. A
    // mismatch aborts this zero-decode pass with kDataLoss; the caller
    // falls back to the record path, where lineage recomputation applies.
    Status verified = table.partitions[i]->VerifyBlob();
    if (!verified.ok()) {
      c_checksum_failures->Add(1);
      statuses[i] = verified;
      return;
    }
    c_blocks_verified->Add(1);
    // An injected shuffle fault models a lost block: the whole source is
    // re-scanned on retry, mirroring ReadPartitionWithRetry.
    std::vector<WireRef> refs;
    for (int attempt = 0;; ++attempt) {
      Status st = injector->MaybeFail(FaultSite::kShuffleSend,
                                      FaultInjector::TaskKey(unit, attempt),
                                      what);
      if (st.ok()) {
        refs.clear();
        refs.reserve(static_cast<size_t>(table.partitions[i]->num_records()));
        size_t offset = 0;
        while (st.ok() && offset < (*blob)->size()) {
          auto view = ScanRecord(**blob, &offset);
          if (view.ok()) {
            refs.push_back(WireRef{*blob, *view});
          } else {
            st = view.status();
          }
        }
        if (st.ok()) break;
      }
      if (attempt + 1 >= policy.max_attempts || !IsRetryable(policy, st)) {
        statuses[i] = st;
        return;
      }
      task_retries->fetch_add(1);
      SleepForBackoff(policy, unit, attempt);
    }
    std::vector<std::vector<WireRef>>& dest = buckets[i];
    dest.resize(num_destinations);
    for (const WireRef& r : refs) {
      dest[ShuffleHashId(r.view.id) % num_destinations].push_back(r);
    }
    wire_bytes.fetch_add(static_cast<int64_t>((*blob)->size()),
                         std::memory_order_relaxed);
  });
  for (const Status& st : statuses) {
    VISTA_RETURN_IF_ERROR(st);
  }
  *wire_bytes_out += wire_bytes.load();
  return Status::OK();
}

/// Wire bytes of one shuffle source: its serialized footprint, read under
/// the cache lock (free once measured), or, for a spilled source that has
/// no size in place, the sum over the records just read from it.
int64_t SourceWireBytes(const StorageCache& cache,
                        const std::shared_ptr<Partition>& source,
                        const std::vector<Record>& records) {
  int64_t bytes = cache.SerializedBytes(source);
  if (bytes <= 0) {
    for (const Record& r : records) bytes += SerializedRecordBytes(r);
  }
  return bytes;
}

}  // namespace

uint64_t ShuffleHashId(int64_t id) {
  uint64_t z = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const char* JoinStrategyToString(JoinStrategy strategy) {
  switch (strategy) {
    case JoinStrategy::kShuffleHash:
      return "shuffle";
    case JoinStrategy::kBroadcast:
      return "broadcast";
  }
  return "?";
}

Record MergeRecords(const Record& left, const Record& right) {
  Record out;
  out.id = left.id;
  out.struct_features = left.struct_features;
  out.struct_features.insert(out.struct_features.end(),
                             right.struct_features.begin(),
                             right.struct_features.end());
  out.images = left.has_image() ? left.images : right.images;
  for (const Tensor& t : left.features.tensors()) out.features.Append(t);
  for (const Tensor& t : right.features.tensors()) out.features.Append(t);
  return out;
}

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  VISTA_CHECK_GE(config_.num_workers, 1);
  VISTA_CHECK_GE(config_.cpus_per_worker, 1);
  memory_ = std::make_unique<MemoryManager>(config_.budgets);
  injector_ = std::make_unique<FaultInjector>(config_.faults);
  if (config_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::Registry>();
    metrics_ = owned_metrics_.get();
  } else {
    metrics_ = config_.metrics;
  }
  if (config_.tracer == nullptr) {
    owned_tracer_ = std::make_unique<obs::TraceCollector>();
    tracer_ = owned_tracer_.get();
  } else {
    tracer_ = config_.tracer;
  }
  c_shuffle_bytes_ = metrics_->counter("engine.shuffle_bytes");
  c_broadcast_bytes_ = metrics_->counter("engine.broadcast_bytes");
  c_map_tasks_ = metrics_->counter("engine.map_tasks");
  c_partitions_read_ = metrics_->counter("engine.partitions_read");
  c_records_out_ = metrics_->counter("engine.records_out");
  c_join_ops_ = metrics_->counter("engine.join_ops");
  h_map_task_ms_ = metrics_->histogram("engine.map_task_ms");
  h_partition_read_ms_ = metrics_->histogram("engine.partition_read_ms");
  h_shuffle_ms_ = metrics_->histogram("engine.shuffle_ms");
  h_serialize_ms_ = metrics_->histogram("engine.serialize_ms");
  c_blocks_verified_ = metrics_->counter("integrity.blocks_verified");
  c_checksum_failures_ = metrics_->counter("integrity.checksum_failures");
  c_recomputes_ = metrics_->counter("integrity.recomputes_triggered");
  if (config_.spill_dir.empty()) {
    config_.spill_dir =
        "/tmp/vista_spill_" + std::to_string(::getpid()) + "_" +
        std::to_string(reinterpret_cast<uintptr_t>(this));
  }
  spill_ = std::make_unique<SpillManager>(config_.spill_dir, *metrics_);
  spill_->set_fault_injector(injector_.get());
  spill_->set_retry_policy(config_.retry);
  spill_->set_prefetch_capacity(
      std::max(config_.prefetch_queue_capacity, config_.prefetch_depth));
  cache_ = std::make_unique<StorageCache>(memory_.get(), spill_.get(),
                                          config_.allow_spill,
                                          injector_.get(), *metrics_);
  pool_ = std::make_unique<ThreadPool>(config_.num_workers *
                                       config_.cpus_per_worker);
}

EngineStats Engine::stats() const {
  // Async spill writes bump their counters from the writer thread.
  spill_->WaitDrained();
  EngineStats s;
  s.spill_bytes_written = metrics_->counter("spill.bytes_written")->value();
  s.spill_bytes_read = metrics_->counter("spill.bytes_read")->value();
  s.recovery.retries =
      task_retries_.load() + metrics_->counter("spill.io_retries")->value();
  s.recovery.recomputed_partitions = recomputed_partitions_.load();
  s.recovery.injected_faults = injector_->total_injected();
  s.integrity.blocks_verified = c_blocks_verified_->value();
  s.integrity.checksum_failures = c_checksum_failures_->value();
  s.integrity.torn_writes_detected =
      metrics_->counter("integrity.torn_writes_detected")->value();
  s.integrity.recomputes_triggered = c_recomputes_->value();
  return s;
}

Result<Table> Engine::MakeTable(std::vector<Record> records,
                                int num_partitions) {
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  auto buckets = BucketByHash(std::move(records), num_partitions);
  Table table;
  table.partitions.reserve(num_partitions);
  for (auto& bucket : buckets) {
    table.partitions.push_back(
        std::make_shared<Partition>(std::move(bucket)));
  }
  return table;
}

void Engine::PrefetchAhead(
    const std::vector<std::shared_ptr<Partition>>& parts, int64_t i,
    int depth) {
  if (depth <= 0) return;
  const int64_t target = i + depth;
  if (target < static_cast<int64_t>(parts.size())) {
    cache_->Prefetch(parts[target]);
  }
}

void Engine::SeedPrefetch(
    const std::vector<std::shared_ptr<Partition>>& parts, int depth) {
  const int64_t n =
      std::min<int64_t>(depth, static_cast<int64_t>(parts.size()));
  for (int64_t i = 0; i < n; ++i) cache_->Prefetch(parts[i]);
}

void Engine::PrefetchTable(const Table& table) {
  for (const auto& p : table.partitions) cache_->Prefetch(p);
}

Result<std::vector<Record>> Engine::ReadPartition(
    const std::shared_ptr<Partition>& p) {
  c_partitions_read_->Add(1);
  obs::ScopedLatency latency(h_partition_read_ms_);
  auto records = cache_->ReadThrough(p);
  if (records.ok() || p->lineage() == nullptr) return records;
  const Status& st = records.status();
  if (!st.IsIOError() && !st.IsNotFound() && !st.IsUnavailable() &&
      !st.IsDataLoss()) {
    return records;
  }
  // The partition's data is gone (lost or corrupt spill block): rebuild it
  // from the parent by re-applying the lineage UDF — Spark-style
  // recomputation instead of job failure. Deterministic UDFs make the
  // rebuilt records bit-identical to the originals. kDataLoss lands here
  // rather than in a retry loop because re-reading a corrupt block cannot
  // help; recomputation is the only cure, and is metered separately.
  const bool from_corruption = st.IsDataLoss();
  const Lineage* lineage = p->lineage();
  VISTA_ASSIGN_OR_RETURN(std::vector<Record> parent_records,
                         ReadPartition(lineage->parent));
  VISTA_ASSIGN_OR_RETURN(std::vector<Record> rebuilt,
                         lineage->fn(std::move(parent_records)));
  recomputed_partitions_.fetch_add(1);
  if (from_corruption) c_recomputes_->Add(1);
  return rebuilt;
}

Result<std::vector<Record>> Engine::ReadPartitionWithRetry(
    const std::shared_ptr<Partition>& p, uint64_t unit, const char* what) {
  const RetryPolicy& policy = config_.retry;
  for (int attempt = 0;; ++attempt) {
    Status st = injector_->MaybeFail(FaultSite::kShuffleSend,
                                     FaultInjector::TaskKey(unit, attempt),
                                     what);
    if (st.ok()) {
      auto records = ReadPartition(p);
      if (records.ok()) return records;
      st = records.status();
    }
    if (attempt + 1 >= policy.max_attempts || !IsRetryable(policy, st)) {
      return st;
    }
    task_retries_.fetch_add(1);
    SleepForBackoff(policy, unit, attempt);
  }
}

Status Engine::LendPartition(
    const std::shared_ptr<Partition>& p,
    const std::function<Status(const std::vector<Record>&)>& use) {
  const Stopwatch watch;
  const std::vector<Record>* lent = cache_->Pin(p);
  if (lent == nullptr) {
    VISTA_ASSIGN_OR_RETURN(std::vector<Record> records, ReadPartition(p));
    return use(records);
  }
  c_partitions_read_->Add(1);
  h_partition_read_ms_->Record(watch.ElapsedSeconds() * 1e3);
  Status st = use(*lent);
  cache_->Unpin(p);
  return st;
}

Status Engine::RunMapTasks(const char* span_name, const Table& input,
                           const std::function<Status(int64_t)>& task,
                           int prefetch_depth) {
  const int np = input.num_partitions();
  const uint64_t op = NextOpSeq();
  obs::ScopedSpan span(tracer_, span_name, "engine");
  const int depth = EffectivePrefetchDepth(prefetch_depth);
  SeedPrefetch(input.partitions, depth);
  std::vector<Status> statuses(np);
  pool_->ParallelFor(np, [&](int64_t i) {
    PrefetchAhead(input.partitions, i, depth);
    c_map_tasks_->Add(1);
    obs::ScopedLatency task_latency(h_map_task_ms_);
    const RetryPolicy& policy = config_.retry;
    const uint64_t unit = ShuffleTaskUnit(op, 0, i);
    for (int attempt = 0;; ++attempt) {
      // The injected failure fires before the UDF runs, modelling a lost
      // task; a retried task re-reads its input and re-runs the UDF from
      // scratch, so partial work never leaks into the output.
      Status st = injector_->MaybeFail(FaultSite::kMapTask,
                                       FaultInjector::TaskKey(unit, attempt),
                                       "partition " + std::to_string(i));
      if (st.ok()) {
        st = task(i);
        if (st.ok()) return;
      }
      if (attempt + 1 >= policy.max_attempts || !IsRetryable(policy, st)) {
        statuses[i] = st;
        return;
      }
      task_retries_.fetch_add(1);
      SleepForBackoff(policy, unit, attempt);
    }
  });
  for (const Status& st : statuses) {
    VISTA_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Result<Table> Engine::MapPartitions(const Table& input,
                                    const MapPartitionsFn& fn,
                                    int prefetch_depth) {
  const int np = input.num_partitions();
  std::vector<std::shared_ptr<Partition>> outputs(np);
  VISTA_RETURN_IF_ERROR(RunMapTasks(
      "map_partitions", input,
      [&](int64_t i) -> Status {
        VISTA_ASSIGN_OR_RETURN(std::vector<Record> records,
                               ReadPartition(input.partitions[i]));
        VISTA_ASSIGN_OR_RETURN(std::vector<Record> mapped,
                               fn(std::move(records)));
        c_records_out_->Add(static_cast<int64_t>(mapped.size()));
        outputs[i] = std::make_shared<Partition>(std::move(mapped));
        return Status::OK();
      },
      prefetch_depth));
  Table out;
  out.partitions = std::move(outputs);
  if (config_.enable_lineage) {
    for (int i = 0; i < np; ++i) {
      out.partitions[i]->set_lineage(std::make_shared<Lineage>(
          Lineage{input.partitions[i], fn}));
    }
  }
  return out;
}

Status Engine::ForEachPartition(const Table& input, const PartitionFn& fn) {
  return RunMapTasks(
      "for_each_partition", input,
      [&](int64_t i) {
        return LendPartition(
            input.partitions[i],
            [&](const std::vector<Record>& records) { return fn(i, records); });
      },
      -1);
}

Status Engine::ShuffleSources(
    const Table& table, uint64_t op, int side, int num_destinations,
    const char* what,
    std::vector<std::vector<std::vector<Record>>>* buckets_out) {
  SourceBuckets& buckets = *buckets_out;
  const int ns = table.num_partitions();
  buckets.assign(ns, {});
  const int depth = config_.prefetch_depth;
  SeedPrefetch(table.partitions, depth);
  std::vector<Status> statuses(ns);
  std::atomic<int64_t> wire_bytes{0};
  pool_->ParallelFor(ns, [&](int64_t i) {
    PrefetchAhead(table.partitions, i, depth);
    auto records = ReadPartitionWithRetry(table.partitions[i],
                                          ShuffleTaskUnit(op, side, i), what);
    if (!records.ok()) {
      statuses[i] = records.status();
      return;
    }
    std::vector<std::vector<Record>>& dest = buckets[i];
    dest.resize(num_destinations);
    const int64_t bytes =
        SourceWireBytes(*cache_, table.partitions[i], *records);
    for (Record& r : *records) {
      dest[ShuffleHashId(r.id) % num_destinations].push_back(std::move(r));
    }
    wire_bytes.fetch_add(bytes, std::memory_order_relaxed);
  });
  for (const Status& st : statuses) {
    VISTA_RETURN_IF_ERROR(st);
  }
  c_shuffle_bytes_->Add(wire_bytes.load());
  return Status::OK();
}

Result<Table> Engine::Repartition(const Table& input, int num_partitions) {
  if (num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  const uint64_t op = NextOpSeq();
  obs::ScopedSpan span(tracer_, "repartition", "engine");
  obs::ScopedLatency shuffle_latency(h_shuffle_ms_);
  // Zero-decode path: serialized-resident inputs are moved as byte ranges —
  // header-scan each source, then concatenate each destination's record
  // bytes in source order. No record is ever materialized. The pins hold
  // the blobs resident until the splice is done.
  if (const SerializedPins pins(cache_.get(), input); pins.all()) {
    WireSourceBuckets sources;
    int64_t wire_bytes = 0;
    Status scanned = ScanWireSources(
        pool_.get(), injector_.get(), config_.retry, &task_retries_, input,
        op, 0, num_partitions, "repartition read", &sources, &wire_bytes,
        c_blocks_verified_, c_checksum_failures_);
    if (scanned.ok()) {
      c_shuffle_bytes_->Add(wire_bytes);
      Table table;
      table.partitions.resize(num_partitions);
      pool_->ParallelFor(num_partitions, [&](int64_t j) {
        std::vector<WireRef> refs = MergeWireDestination(&sources, j);
        size_t total = 0;
        for (const WireRef& r : refs) total += r.view.wire_bytes();
        std::vector<uint8_t> blob;
        blob.reserve(total);
        for (const WireRef& r : refs) {
          blob.insert(blob.end(), r.blob->begin() + r.view.begin,
                      r.blob->begin() + r.view.tensors_end);
        }
        table.partitions[j] = std::make_shared<Partition>(
            std::move(blob), static_cast<int64_t>(refs.size()));
      });
      return table;
    }
    if (!scanned.IsDataLoss()) return scanned;
    // A resident blob failed verification: fall through to the record
    // path, whose cache-level verify + lineage recomputation can heal the
    // partition instead of failing the op.
  }
  // Two-phase parallel shuffle. Phase 1: every source partition buckets
  // its own records by destination (thread-local, no shared state; metered
  // as shuffle traffic at wire size). Phase 2: per-destination merges, in
  // source order, run in parallel.
  SourceBuckets sources;
  VISTA_RETURN_IF_ERROR(ShuffleSources(input, op, 0, num_partitions,
                                       "repartition read", &sources));
  Table table;
  table.partitions.resize(num_partitions);
  pool_->ParallelFor(num_partitions, [&](int64_t j) {
    table.partitions[j] =
        std::make_shared<Partition>(MergeDestination(&sources, j));
  });
  return table;
}

Result<Table> Engine::Join(const Table& left, const Table& right,
                           JoinStrategy strategy,
                           int num_output_partitions) {
  if (num_output_partitions < 1) {
    return Status::InvalidArgument("num_output_partitions must be >= 1");
  }
  c_join_ops_->Add(1);
  obs::ScopedSpan span(
      tracer_,
      strategy == JoinStrategy::kBroadcast ? "join:broadcast" : "join:shuffle",
      "engine");
  obs::ScopedLatency shuffle_latency(h_shuffle_ms_);
  if (strategy == JoinStrategy::kBroadcast) {
    // Gather the full right side in parallel (per-source slots keep the
    // build input order deterministic), then build one hash table from it.
    // Replicated per worker in a real cluster, so Core memory is charged
    // num_workers times; the wire counter meters actual serialized bytes.
    const uint64_t op = NextOpSeq();
    const int nr = right.num_partitions();
    const int depth = config_.prefetch_depth;
    SeedPrefetch(right.partitions, depth);
    std::vector<std::vector<Record>> gathered(nr);
    std::vector<Status> gather_statuses(nr);
    std::atomic<int64_t> wire_bytes{0};
    pool_->ParallelFor(nr, [&](int64_t i) {
      PrefetchAhead(right.partitions, i, depth);
      auto records = ReadPartitionWithRetry(right.partitions[i],
                                            ShuffleTaskUnit(op, 1, i),
                                            "broadcast gather");
      if (!records.ok()) {
        gather_statuses[i] = records.status();
        return;
      }
      wire_bytes.fetch_add(
          SourceWireBytes(*cache_, right.partitions[i], *records),
          std::memory_order_relaxed);
      gathered[i] = std::move(records).value();
    });
    for (const Status& st : gather_statuses) {
      VISTA_RETURN_IF_ERROR(st);
    }
    size_t total = 0;
    for (const auto& g : gathered) total += g.size();
    std::vector<Record> small;
    small.reserve(total);
    int64_t small_bytes = 0;
    for (auto& g : gathered) {
      for (Record& r : g) {
        small_bytes += EstimateRecordBytes(r);
        small.push_back(std::move(r));
      }
    }
    c_broadcast_bytes_->Add(wire_bytes.load() * config_.num_workers);
    // The replicated hash table holds deserialized records, so the Core
    // charge stays at the in-memory estimate.
    const int64_t charged = small_bytes * config_.num_workers;
    VISTA_RETURN_IF_ERROR(memory_->TryReserve(MemoryRegion::kCore, charged));
    FlatMap<const Record*> hash_table(small.size());
    for (const Record& r : small) hash_table.emplace(r.id, &r);

    const int np = left.num_partitions();
    SeedPrefetch(left.partitions, depth);
    std::vector<std::shared_ptr<Partition>> outputs(np);
    std::vector<Status> statuses(np);
    pool_->ParallelFor(np, [&](int64_t i) {
      PrefetchAhead(left.partitions, i, depth);
      auto records = ReadPartition(left.partitions[i]);
      if (!records.ok()) {
        statuses[i] = records.status();
        return;
      }
      std::vector<Record> joined;
      for (const Record& l : *records) {
        const Record* const* hit = hash_table.find(l.id);
        if (hit != nullptr) {
          joined.push_back(MergeRecords(l, **hit));
        }
      }
      outputs[i] = std::make_shared<Partition>(std::move(joined));
    });
    memory_->Release(MemoryRegion::kCore, charged);
    for (const Status& st : statuses) {
      VISTA_RETURN_IF_ERROR(st);
    }
    Table out;
    out.partitions = std::move(outputs);
    if (out.num_partitions() != num_output_partitions) {
      return Repartition(out, num_output_partitions);
    }
    return out;
  }

  // Shuffle-hash join, two-phase. Phase 1: both sides' source partitions
  // bucket their records by destination hash in one parallel pass over
  // nl + nr read tasks, each into thread-local per-source slots (no shared
  // mutable state, no locks). Each shuffle-side read is a retryable "send"
  // (lost shuffle block). Phase 2: per destination, merge the per-source
  // buckets in fixed source order — making the output bit-identical to the
  // old serial gather at any parallelism — then hash-join the bucket pair.
  const uint64_t op = NextOpSeq();
  const int np = num_output_partitions;
  // Zero-decode path: when both sides are resident serialized (pinned so
  // until the outputs are spliced), shuffle and join the records as byte
  // ranges and splice the outputs. A blob that fails verification mid-scan
  // drops to the decoding path below, where lineage recomputation can
  // rebuild the corrupt partition.
  if (const SerializedPins left_pins(cache_.get(), left),
      right_pins(cache_.get(), right);
      left_pins.all() && right_pins.all()) {
    auto joined = SerializedShuffleJoin(left, right, op, np);
    if (joined.ok() || !joined.status().IsDataLoss()) return joined;
  }
  SourceBuckets left_sources;
  SourceBuckets right_sources;
  VISTA_RETURN_IF_ERROR(
      ShuffleSources(left, op, 0, np, "shuffle send (left)", &left_sources));
  VISTA_RETURN_IF_ERROR(ShuffleSources(right, op, 1, np,
                                       "shuffle send (right)",
                                       &right_sources));
  // Join working memory: each build side's deserialized footprint, charged
  // to Core for all of phase 2 at its concurrent peak.
  const int64_t charge = ConcurrentCharge(
      BuildCharges(pool_.get(), left_sources, right_sources, np,
                   EstimateRecordBytes),
      parallelism());
  VISTA_RETURN_IF_ERROR(memory_->TryReserve(MemoryRegion::kCore, charge));

  std::vector<std::shared_ptr<Partition>> outputs(np);
  pool_->ParallelFor(np, [&](int64_t i) {
    std::vector<Record> left_bucket = MergeDestination(&left_sources, i);
    std::vector<Record> right_bucket = MergeDestination(&right_sources, i);
    // Build side: the smaller bucket (as BuildCharges chose it).
    std::vector<Record>& build = right_bucket.size() <= left_bucket.size()
                                     ? right_bucket
                                     : left_bucket;
    std::vector<Record>& probe = right_bucket.size() <= left_bucket.size()
                                     ? left_bucket
                                     : right_bucket;
    const bool build_is_right = &build == &right_bucket;
    FlatMap<const Record*> hash_table(build.size());
    for (const Record& r : build) hash_table.emplace(r.id, &r);
    std::vector<Record> joined;
    joined.reserve(std::min(build.size(), probe.size()));
    for (const Record& p : probe) {
      const Record* const* hit = hash_table.find(p.id);
      if (hit != nullptr) {
        // Keep (left, right) merge order regardless of build side.
        joined.push_back(build_is_right ? MergeRecords(p, **hit)
                                        : MergeRecords(**hit, p));
      }
    }
    build.clear();
    probe.clear();
    outputs[i] = std::make_shared<Partition>(std::move(joined));
  });
  memory_->Release(MemoryRegion::kCore, charge);
  Table out;
  out.partitions = std::move(outputs);
  return out;
}

Result<Table> Engine::SerializedShuffleJoin(const Table& left,
                                            const Table& right, uint64_t op,
                                            int num_output_partitions) {
  const int np = num_output_partitions;
  int64_t wire_bytes = 0;
  WireSourceBuckets left_sources;
  WireSourceBuckets right_sources;
  VISTA_RETURN_IF_ERROR(ScanWireSources(
      pool_.get(), injector_.get(), config_.retry, &task_retries_, left, op,
      0, np, "shuffle send (left)", &left_sources, &wire_bytes,
      c_blocks_verified_, c_checksum_failures_));
  VISTA_RETURN_IF_ERROR(ScanWireSources(
      pool_.get(), injector_.get(), config_.retry, &task_retries_, right, op,
      1, np, "shuffle send (right)", &right_sources, &wire_bytes,
      c_blocks_verified_, c_checksum_failures_));
  c_shuffle_bytes_->Add(wire_bytes);
  // The hash builds hold byte-range views, so the Core charge is each build
  // side's wire footprint — what this path actually keeps resident, not the
  // (larger, dense) deserialized estimate.
  const int64_t charge = ConcurrentCharge(
      BuildCharges(pool_.get(), left_sources, right_sources, np,
                   [](const WireRef& r) {
                     return static_cast<int64_t>(r.view.wire_bytes());
                   }),
      parallelism());
  VISTA_RETURN_IF_ERROR(memory_->TryReserve(MemoryRegion::kCore, charge));

  std::vector<std::shared_ptr<Partition>> outputs(np);
  pool_->ParallelFor(np, [&](int64_t i) {
    std::vector<WireRef> left_bucket = MergeWireDestination(&left_sources, i);
    std::vector<WireRef> right_bucket =
        MergeWireDestination(&right_sources, i);
    // Same build-side choice and merge order as the decoding path, so the
    // spliced output is bit-identical to decode + MergeRecords + re-encode.
    std::vector<WireRef>& build = right_bucket.size() <= left_bucket.size()
                                      ? right_bucket
                                      : left_bucket;
    std::vector<WireRef>& probe = right_bucket.size() <= left_bucket.size()
                                      ? left_bucket
                                      : right_bucket;
    const bool build_is_right = &build == &right_bucket;
    FlatMap<const WireRef*> hash_table(build.size());
    for (const WireRef& r : build) hash_table.emplace(r.view.id, &r);
    // Probe pass collects the matches (in probe order, (left, right)
    // oriented) and sizes the output exactly; the splice pass then fills
    // one flat allocation with straight memcpys.
    std::vector<std::pair<const WireRef*, const WireRef*>> hits;
    hits.reserve(std::min(build.size(), probe.size()));
    size_t out_bytes = 0;
    for (const WireRef& p : probe) {
      const WireRef* const* hit = hash_table.find(p.view.id);
      if (hit != nullptr) {
        const WireRef* l = build_is_right ? &p : *hit;
        const WireRef* r = build_is_right ? *hit : &p;
        out_bytes += static_cast<size_t>(SplicedJoinBytes(l->view, r->view));
        hits.emplace_back(l, r);
      }
    }
    std::vector<uint8_t> blob;
    blob.reserve(out_bytes);
    for (const auto& [l, r] : hits) {
      SpliceJoinedRecord(*l->blob, l->view, *r->blob, r->view, &blob);
    }
    outputs[i] = std::make_shared<Partition>(
        std::move(blob), static_cast<int64_t>(hits.size()));
  });
  memory_->Release(MemoryRegion::kCore, charge);
  Table out;
  out.partitions = std::move(outputs);
  return out;
}

Result<Table> Engine::Filter(
    const Table& input, const std::function<bool(const Record&)>& predicate) {
  // Capture the predicate by value: the lambda outlives this call as the
  // output table's lineage UDF.
  return MapPartitions(
      input,
      [predicate](std::vector<Record> records)
          -> Result<std::vector<Record>> {
        std::vector<Record> out;
        for (Record& r : records) {
          if (predicate(r)) out.push_back(std::move(r));
        }
        return out;
      });
}

Result<Table> Engine::Union(const Table& a, const Table& b) {
  if (a.num_partitions() != b.num_partitions()) {
    return Status::InvalidArgument(
        "Union: partition counts differ (" +
        std::to_string(a.num_partitions()) + " vs " +
        std::to_string(b.num_partitions()) + "); repartition first");
  }
  const uint64_t op = NextOpSeq();
  obs::ScopedSpan span(tracer_, "union", "engine");
  obs::ScopedLatency shuffle_latency(h_shuffle_ms_);
  const int np = a.num_partitions();
  const int depth = config_.prefetch_depth;
  SeedPrefetch(a.partitions, depth);
  SeedPrefetch(b.partitions, depth);
  std::vector<std::shared_ptr<Partition>> outputs(np);
  std::vector<Status> statuses(np);
  pool_->ParallelFor(np, [&](int64_t i) {
    PrefetchAhead(a.partitions, i, depth);
    PrefetchAhead(b.partitions, i, depth);
    auto left = ReadPartitionWithRetry(a.partitions[i],
                                       ShuffleTaskUnit(op, 0, i),
                                       "union read (left)");
    if (!left.ok()) {
      statuses[i] = left.status();
      return;
    }
    auto right = ReadPartitionWithRetry(b.partitions[i],
                                        ShuffleTaskUnit(op, 1, i),
                                        "union read (right)");
    if (!right.ok()) {
      statuses[i] = right.status();
      return;
    }
    std::vector<Record> merged = std::move(left).value();
    std::vector<Record> tail = std::move(right).value();
    merged.reserve(merged.size() + tail.size());
    for (Record& r : tail) merged.push_back(std::move(r));
    outputs[i] = std::make_shared<Partition>(std::move(merged));
  });
  for (const Status& st : statuses) {
    VISTA_RETURN_IF_ERROR(st);
  }
  Table out;
  out.partitions = std::move(outputs);
  return out;
}

Result<Table> Engine::Sample(const Table& input, double fraction,
                             uint64_t seed) {
  if (fraction < 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("Sample: fraction must be in [0, 1]");
  }
  return MapPartitions(
      input,
      [fraction, seed](std::vector<Record> records)
          -> Result<std::vector<Record>> {
        std::vector<Record> out;
        for (Record& r : records) {
          // Stable per-id hash draw (splitmix64 finalizer).
          uint64_t z = static_cast<uint64_t>(r.id) * 0x9e3779b97f4a7c15ULL +
                       seed;
          z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
          z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
          z ^= z >> 31;
          const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
          if (u < fraction) out.push_back(std::move(r));
        }
        return out;
      });
}

Status Engine::Persist(Table* table, PersistenceFormat format) {
  const uint64_t op = NextOpSeq();
  obs::ScopedSpan span(tracer_, "persist", "engine");
  // Phase 1: per-partition format conversion in parallel — ConvertTo is
  // pure CPU (encode/decode) and partitions are independent.
  const int np = table->num_partitions();
  std::vector<Status> statuses(np);
  pool_->ParallelFor(np, [&](int64_t i) {
    obs::ScopedLatency latency(h_serialize_ms_);
    statuses[i] = table->partitions[i]->ConvertTo(format);
  });
  for (const Status& st : statuses) {
    VISTA_RETURN_IF_ERROR(st);
  }
  // Phase 2: sequential inserts (memory-spike fault draws key off the
  // cache's insert sequence, so ordering must stay deterministic). Any
  // eviction they trigger hands its blob to the spill writer thread, which
  // overlaps the disk I/O with the next insert's work.
  for (size_t i = 0; i < table->partitions.size(); ++i) {
    // Transient memory spikes (injected in the cache) reject individual
    // insert attempts with Unavailable; retry them. Genuine budget
    // violations are ResourceExhausted and fail through immediately.
    VISTA_RETURN_IF_ERROR(RunWithRetry(
        config_.retry, ShuffleTaskUnit(op, 0, static_cast<int64_t>(i)),
        [&] { return cache_->Insert(table->partitions[i]); },
        &task_retries_));
  }
  // Ordered flush: async spill-write failures fail the Persist that
  // caused them, not some unrelated later operation.
  return spill_->Flush();
}

void Engine::Unpersist(Table* table) {
  for (auto& p : table->partitions) cache_->Remove(p);
}

Result<std::vector<Record>> Engine::Collect(const Table& table,
                                            int64_t driver_memory_bytes) {
  const uint64_t op = NextOpSeq();
  obs::ScopedSpan span(tracer_, "collect", "engine");
  // Stays serial: the driver-memory crash must trigger at a deterministic
  // record, in table order, independent of thread scheduling. Read-ahead
  // still overlaps the next partition's disk read with this one's decode.
  const int depth = config_.prefetch_depth;
  SeedPrefetch(table.partitions, depth);
  std::vector<Record> all;
  int64_t bytes = 0;
  for (int i = 0; i < table.num_partitions(); ++i) {
    PrefetchAhead(table.partitions, i, depth);
    VISTA_ASSIGN_OR_RETURN(
        std::vector<Record> records,
        ReadPartitionWithRetry(table.partitions[i],
                               ShuffleTaskUnit(op, 0, i), "collect fetch"));
    for (Record& r : records) {
      bytes += EstimateRecordBytes(r);
      if (driver_memory_bytes >= 0 && bytes > driver_memory_bytes) {
        return Status::ResourceExhausted(
            "driver memory exhausted while collecting results");
      }
      all.push_back(std::move(r));
    }
  }
  return all;
}

}  // namespace vista::df
