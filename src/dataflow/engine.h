#ifndef VISTA_DATAFLOW_ENGINE_H_
#define VISTA_DATAFLOW_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/fault_injector.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "dataflow/cache.h"
#include "dataflow/memory.h"
#include "dataflow/partition.h"
#include "dataflow/record.h"
#include "dataflow/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace vista::df {

/// A distributed table handle: an ordered set of hash partitions.
/// Tables are cheap to copy (partitions are shared).
struct Table {
  std::vector<std::shared_ptr<Partition>> partitions;

  int num_partitions() const { return static_cast<int>(partitions.size()); }
  int64_t num_records() const {
    int64_t n = 0;
    for (const auto& p : partitions) n += p->num_records();
    return n;
  }
  /// Current total in-memory footprint.
  int64_t memory_bytes() const {
    int64_t n = 0;
    for (const auto& p : partitions) n += p->memory_bytes();
    return n;
  }
};

/// Physical join operator choice (Section 4.2.3).
enum class JoinStrategy {
  kShuffleHash,
  kBroadcast,
};

const char* JoinStrategyToString(JoinStrategy strategy);

/// Stable hash of a record id for partitioning (splitmix64 finalizer).
/// Exported so tests and benches can reproduce the engine's bucketing.
uint64_t ShuffleHashId(int64_t id);

/// Packs (op sequence, side, partition index) into a unique fault-decision
/// unit key: op in the high bits, one side bit, then 32 bits of index. The
/// old packing reserved only 15 bits for the index (right side = 0x8000+i),
/// so left and right keys collided once a table exceeded 0x8000 partitions
/// and same-seed fault schedules silently overlapped.
constexpr uint64_t ShuffleTaskUnit(uint64_t op, int side, int64_t index) {
  return (op << 33) | (static_cast<uint64_t>(side & 1) << 32) |
         (static_cast<uint64_t>(index) & 0xffffffffULL);
}

/// Configuration of the local dataflow engine.
///
/// The engine executes in one process; `num_workers * cpus_per_worker`
/// threads model the cluster's total parallelism, and the MemoryBudgets
/// model the *aggregate* regions across workers. Crash scenarios surface as
/// ResourceExhausted Statuses rather than process deaths.
struct EngineConfig {
  int num_workers = 1;
  int cpus_per_worker = 2;
  MemoryBudgets budgets;
  /// Storage format applied by Persist() unless overridden.
  PersistenceFormat persistence = PersistenceFormat::kDeserialized;
  /// False models memory-only deployments (Ignite-like): storage pressure
  /// becomes a crash instead of a disk spill.
  bool allow_spill = true;
  /// Scratch directory for spills; auto-generated when empty.
  std::string spill_dir;
  /// Seeded fault injection (inert by default). Failure decisions are pure
  /// functions of (seed, site, key), so a given seed yields the same
  /// failure schedule across runs regardless of thread interleaving.
  FaultInjectorConfig faults;
  /// Retry policy applied to map-partition tasks, shuffle-side partition
  /// reads, spill I/O, and persist inserts.
  RetryPolicy retry;
  /// Attach lineage metadata to MapPartitions outputs so a partition whose
  /// data is lost (failed spill read-back) is recomputed from its parent
  /// instead of failing the job. Like Spark, recomputation re-runs the UDF,
  /// so UDFs must be deterministic (all of Vista's are).
  bool enable_lineage = true;
  /// Read-ahead distance for spilled partitions in read-driven ops
  /// (MapPartitions, shuffle sources, broadcast gather, Union, Collect):
  /// while task i runs, partition i + depth is hinted to the spill
  /// prefetch plane. 0 (the default) disables hinting entirely, keeping
  /// read schedules and fault-draw accounting identical to the
  /// pre-prefetch engine; results are bit-identical at any depth either
  /// way.
  int prefetch_depth = 0;
  /// Bounds outstanding prefetch slots in the SpillManager (hints beyond
  /// it drop). The effective capacity is max(this, prefetch_depth).
  int prefetch_queue_capacity = 4;
  /// Metrics/trace sinks for the engine and its spill/cache components.
  /// Null → the engine creates and owns private instances (tests stay
  /// isolated); benches inject shared ones to aggregate several engines
  /// into one exported profile.
  obs::Registry* metrics = nullptr;
  obs::TraceCollector* tracer = nullptr;
};

/// The recovery and integrity summary of the engine, read from its obs
/// registry (every engine sharing an injected registry adds into the same
/// "spill.*" and "integrity.*" counters) except for task retries, lineage
/// recomputations and injected faults, which are this engine's own. Every
/// other count lives only in the registry: read it by instrument name.
struct EngineStats {
  /// "spill.bytes_written" / "spill.bytes_read": payload bytes of durable
  /// spill writes and verified read-backs, settled after any in-flight
  /// async writes land.
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;
  /// Retries (map tasks, shuffle reads, and the "spill.io_retries"
  /// counter), lineage recomputations, and injected faults since engine
  /// construction.
  RecoveryStats recovery;
  /// Verify-on-read outcomes, read from the shared "integrity.*"
  /// instruments: every durable/serialized block checked before re-entering
  /// the engine, checksum mismatches (including torn writes, also broken
  /// out separately), and how many of those corruptions were healed by
  /// lineage recomputation instead of failing the job.
  IntegrityStats integrity;
};

/// The parallel-dataflow substrate: partitioned tables, UDF map-partitions,
/// shuffle-hash and broadcast key-key joins, managed caching with LRU
/// eviction and disk spills.
class Engine {
 public:
  /// UDF over one partition's records. Runs concurrently across partitions;
  /// must be thread-compatible (no shared mutable state without locking).
  using MapPartitionsFn =
      std::function<Result<std::vector<Record>>(std::vector<Record>)>;
  /// Read-only task over one partition's records, given its index.
  using PartitionFn = std::function<Status(
      int64_t partition, const std::vector<Record>& records)>;

  explicit Engine(EngineConfig config);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return config_; }
  MemoryManager& memory() { return *memory_; }
  StorageCache& cache() { return *cache_; }
  /// The engine-owned injector; tests reconfigure rates between ops via
  /// FaultInjector::Configure.
  FaultInjector& fault_injector() { return *injector_; }
  /// Waits for in-flight async spill writes, then reads the summary. Adds
  /// nothing to the registry.
  EngineStats stats() const;

  /// The metrics registry and trace collector every engine component
  /// reports into: op spans, task latency histograms, bytes-moved and
  /// spill/cache counters. Engine-owned unless injected via EngineConfig.
  obs::Registry& metrics() { return *metrics_; }
  const obs::Registry& metrics() const { return *metrics_; }
  obs::TraceCollector& tracer() { return *tracer_; }
  const obs::TraceCollector& tracer() const { return *tracer_; }

  /// Total execution threads (num_workers * cpus_per_worker).
  int parallelism() const { return pool_->num_threads(); }

  /// The engine's worker pool, for UDFs that parallelize internally (e.g.
  /// batched CNN inference). ParallelFor is caller-inclusive, so nesting it
  /// inside an engine map task cannot deadlock; see thread_pool.h.
  ThreadPool* pool() { return pool_.get(); }

  /// Hash-partitions `records` by id into `num_partitions` partitions.
  Result<Table> MakeTable(std::vector<Record> records, int num_partitions);

  /// Applies `fn` to every partition in parallel, producing a new
  /// (unmanaged) table with the same partitioning. `prefetch_depth`
  /// overrides EngineConfig::prefetch_depth for this op (-1 keeps the
  /// config value); the executor uses it to pick a compute-aware
  /// read-ahead distance per inference step.
  Result<Table> MapPartitions(const Table& input, const MapPartitionsFn& fn,
                              int prefetch_depth = -1);

  /// Runs `fn` on every partition in parallel as MapPartitions tasks do
  /// (fault draws, retries, read-ahead, lineage), producing nothing. A
  /// retried task calls `fn(i, ...)` again, so `fn` must store results by
  /// overwriting slot i, never by accumulating into it. `fn` reads the
  /// records in place where it can: a resident deserialized partition
  /// lends its own records (pinned against eviction while `fn` runs, see
  /// StorageCache::Pin); serialized and spilled partitions are read
  /// through the cache as MapPartitions reads them.
  Status ForEachPartition(const Table& input, const PartitionFn& fn);

  /// Non-blocking read-ahead hints for every currently spilled partition
  /// of `table` (bounded by the prefetch queue; excess hints drop). The
  /// executor calls this for the next step's input while the current step
  /// computes; the serving plane calls it on a cached view before resuming
  /// partial inference from it.
  void PrefetchTable(const Table& table);

  /// Inner key-key join on record id. Records are merged field-wise: ids
  /// must match, struct features are concatenated (left then right), image
  /// and feature-list fields are taken from whichever side has them.
  Result<Table> Join(const Table& left, const Table& right,
                     JoinStrategy strategy, int num_output_partitions);

  /// Re-partitions a table by id hash.
  Result<Table> Repartition(const Table& input, int num_partitions);

  /// Keeps the records satisfying `predicate` (partition-parallel).
  Result<Table> Filter(const Table& input,
                       const std::function<bool(const Record&)>& predicate);

  /// Concatenates two tables partition-wise. Record ids are not
  /// deduplicated; partition counts must match (repartition first
  /// otherwise).
  Result<Table> Union(const Table& a, const Table& b);

  /// Deterministic Bernoulli sample of `fraction` of the records, keyed on
  /// record id and `seed` (the same record is always in or out for a given
  /// seed, independent of partitioning).
  Result<Table> Sample(const Table& input, double fraction,
                       uint64_t seed = 17);

  /// Puts a table's partitions under managed Storage memory in `format`,
  /// spilling under pressure (or failing when spills are disallowed).
  Status Persist(Table* table, PersistenceFormat format);

  /// Removes a table's partitions from managed storage.
  void Unpersist(Table* table);

  /// Gathers all records to the caller ("driver"). If
  /// `driver_memory_bytes` >= 0, fails with ResourceExhausted when the
  /// result exceeds it (the paper's driver-OOM crash scenario).
  Result<std::vector<Record>> Collect(const Table& table,
                                      int64_t driver_memory_bytes = -1);

 private:
  /// Reads a partition's records through the cache (faulting in spills).
  /// When the data is unreadable (lost/corrupt spill) and the partition
  /// carries lineage, rebuilds the records from the parent partition.
  Result<std::vector<Record>> ReadPartition(
      const std::shared_ptr<Partition>& p);

  /// ReadPartition wrapped in the retry policy with shuffle-send fault
  /// injection, for the gather side of shuffles/broadcasts/collects.
  /// `unit` is a stable per-op task key.
  Result<std::vector<Record>> ReadPartitionWithRetry(
      const std::shared_ptr<Partition>& p, uint64_t unit,
      const char* what);

  /// ReadPartition for read-only tasks: runs `use` on the partition's own
  /// records when StorageCache::Pin lends them, and on a copy read
  /// through the cache otherwise.
  Status LendPartition(
      const std::shared_ptr<Partition>& p,
      const std::function<Status(const std::vector<Record>&)>& use);

  /// The map-task loop behind MapPartitions and ForEachPartition: per
  /// partition, draw a map-task fault, run `task(i)` (which reads the
  /// partition, or recomputes it from lineage, and processes it), and retry
  /// under the policy. Records one `span_name` span.
  Status RunMapTasks(const char* span_name, const Table& input,
                     const std::function<Status(int64_t)>& task,
                     int prefetch_depth);

  /// Issues read-ahead hints around task `i` of a partition-ordered loop:
  /// the initial window [0, depth) when i == 0 has not run yet is seeded
  /// by SeedPrefetch, and each task hints partition i + depth. No-ops at
  /// depth <= 0.
  void PrefetchAhead(const std::vector<std::shared_ptr<Partition>>& parts,
                     int64_t i, int depth);
  void SeedPrefetch(const std::vector<std::shared_ptr<Partition>>& parts,
                    int depth);
  /// Resolves an op-level depth override (-1 = use config).
  int EffectivePrefetchDepth(int override_depth) const {
    return override_depth < 0 ? config_.prefetch_depth : override_depth;
  }

  /// Phase 1 of the two-phase parallel shuffle: reads every partition of
  /// `table` in parallel (retryable shuffle sends keyed by
  /// ShuffleTaskUnit(op, side, i)) and buckets its records into
  /// (*buckets_out)[source][destination] — thread-local per source, so no
  /// locks. Wire bytes are metered into the shuffle counter.
  Status ShuffleSources(
      const Table& table, uint64_t op, int side, int num_destinations,
      const char* what,
      std::vector<std::vector<std::vector<Record>>>* buckets_out);

  /// Zero-decode shuffle-hash join for serialized-resident inputs, which
  /// the caller keeps pinned (StorageCache::PinSerialized) throughout:
  /// scans record headers into byte-range views, hash-joins the views by
  /// id, and splices output partitions directly in serialized form.
  /// Bit-identical output (after ToBlob) to the decoding path at any
  /// thread count.
  Result<Table> SerializedShuffleJoin(const Table& left, const Table& right,
                                      uint64_t op, int num_output_partitions);

  /// Monotone per-engine-op sequence: ops are driver-sequential, so keys
  /// derived from it are deterministic across runs.
  uint64_t NextOpSeq() { return op_seq_.fetch_add(1); }

  EngineConfig config_;
  /// Backing instances when EngineConfig does not inject sinks. Declared
  /// before every component that holds instrument pointers — most
  /// importantly SpillManager, whose background writer thread bumps
  /// registry-owned counters until ~SpillManager joins it — so reverse
  /// destruction order keeps the registry alive past all of them.
  std::unique_ptr<obs::Registry> owned_metrics_;
  std::unique_ptr<obs::TraceCollector> owned_tracer_;
  std::unique_ptr<MemoryManager> memory_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<SpillManager> spill_;
  std::unique_ptr<StorageCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  obs::Registry* metrics_ = nullptr;
  obs::TraceCollector* tracer_ = nullptr;
  /// Instruments are resolved once here; hot paths only touch atomics.
  obs::Counter* c_shuffle_bytes_ = nullptr;
  obs::Counter* c_broadcast_bytes_ = nullptr;
  obs::Counter* c_map_tasks_ = nullptr;
  obs::Counter* c_partitions_read_ = nullptr;
  obs::Counter* c_records_out_ = nullptr;
  obs::Counter* c_join_ops_ = nullptr;
  obs::Histogram* h_map_task_ms_ = nullptr;
  obs::Histogram* h_partition_read_ms_ = nullptr;
  /// Wall-clock of each shuffle-moving op (Join/Repartition/Union) and of
  /// each per-partition serialization task inside Persist.
  obs::Histogram* h_shuffle_ms_ = nullptr;
  obs::Histogram* h_serialize_ms_ = nullptr;
  /// Shared "integrity.*" instruments (also fed by SpillManager and
  /// StorageCache); the engine adds zero-decode scan verifies and
  /// DataLoss-triggered lineage recomputes.
  obs::Counter* c_blocks_verified_ = nullptr;
  obs::Counter* c_checksum_failures_ = nullptr;
  obs::Counter* c_recomputes_ = nullptr;
  std::atomic<int64_t> task_retries_{0};
  std::atomic<int64_t> recomputed_partitions_{0};
  std::atomic<uint64_t> op_seq_{1};
};

/// Merges two joined records (documented on Engine::Join).
Record MergeRecords(const Record& left, const Record& right);

}  // namespace vista::df

#endif  // VISTA_DATAFLOW_ENGINE_H_
