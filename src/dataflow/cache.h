#ifndef VISTA_DATAFLOW_CACHE_H_
#define VISTA_DATAFLOW_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/fault_injector.h"
#include "common/status.h"
#include "dataflow/memory.h"
#include "dataflow/partition.h"
#include "dataflow/spill.h"
#include "obs/metrics.h"

namespace vista::df {

/// LRU-managed Storage Memory for cached partitions.
///
/// Inserted partitions charge their footprint against the MemoryManager's
/// Storage region. Under pressure, least-recently-used partitions are
/// evicted to the SpillManager (if spilling is allowed — Spark-like) or the
/// insert fails with ResourceExhausted (memory-only, Ignite-like), which is
/// exactly the paper's Eager-on-Ignite crash mode.
class StorageCache {
 public:
  /// `injector` (may be null) lets seeded transient memory spikes reject
  /// inserts: Insert returns Unavailable, which the engine's retry policy
  /// treats as retryable — unlike a genuine budget violation. `metrics`
  /// receives the "cache.*" counters, a "cache.resident_bytes" gauge and
  /// the shared "integrity.*" counters of resident-blob verification. The
  /// injector, when given, and the registry must outlive the cache.
  StorageCache(MemoryManager* memory, SpillManager* spill, bool allow_spill,
               FaultInjector* injector, obs::Registry& metrics);

  StorageCache(const StorageCache&) = delete;
  StorageCache& operator=(const StorageCache&) = delete;

  /// Places `partition` under cache management, evicting LRU entries as
  /// needed. If it cannot fit even after evictions, the partition itself is
  /// spilled (when allowed) or ResourceExhausted is returned.
  Status Insert(const std::shared_ptr<Partition>& partition);

  /// Reads the records of a managed partition, faulting it in from disk if
  /// it was spilled, and marks it most-recently-used. Also works for
  /// partitions that are not under management (plain read). Serialized
  /// resident blobs are CRC-verified before any record is decoded from
  /// them; a mismatch returns kDataLoss (counted under "integrity.*") so
  /// the engine recomputes from lineage instead of decoding rotted bytes.
  Result<std::vector<Record>> ReadThrough(
      const std::shared_ptr<Partition>& partition);

  /// `partition`'s Partition::memory_bytes_as(kSerialized), read under the
  /// cache lock, so that another task's fault-in cannot evict the
  /// partition while it is measured. 0 while the partition is spilled.
  int64_t SerializedBytes(const std::shared_ptr<Partition>& partition) const;

  /// Lends `partition`'s own records, without copying them, when they are
  /// resident and deserialized. A managed partition is pinned until the
  /// matching Unpin: EvictUntilAvailable skips it, so it stays resident
  /// and charged while a task reads it, and the read counts as a cache
  /// hit. An unmanaged partition, which nothing evicts, is lent as it is.
  /// Returns null, pinning nothing, for a serialized or spilled partition:
  /// read those through ReadThrough.
  const std::vector<Record>* Pin(const std::shared_ptr<Partition>& partition);

  /// Pins `partition` like Pin when it is resident and serialized, so that
  /// a zero-decode pass can read its blob in place while other tasks fault
  /// partitions in. Unlike Pin it neither moves the partition in the LRU
  /// order nor counts a read. Returns false, pinning nothing, for a
  /// deserialized or spilled partition.
  bool PinSerialized(const std::shared_ptr<Partition>& partition);

  /// Ends one loan of a Pin that returned non-null or a PinSerialized that
  /// returned true.
  void Unpin(const std::shared_ptr<Partition>& partition);

  /// Removes a partition from management, releasing memory and any spill.
  void Remove(const std::shared_ptr<Partition>& partition);

  /// Non-blocking read-ahead hint: if `partition` is managed and currently
  /// spilled, asks the SpillManager to start reading its block in the
  /// background so a near-future ReadThrough finds the verified bytes
  /// already latched. No-op for resident or unmanaged partitions; purely
  /// an overlap optimization (results and fault accounting are identical
  /// with or without the hint — see SpillManager::Prefetch).
  void Prefetch(const std::shared_ptr<Partition>& partition);

  int64_t num_managed() const;
  int64_t num_spilled() const;

 private:
  struct Entry {
    int64_t key = 0;
    std::shared_ptr<Partition> partition;
    /// Bytes charged to Storage while resident.
    int64_t charged_bytes = 0;
    std::list<Partition*>::iterator lru_it;
    bool in_lru = false;
    /// Outstanding Pin loans; eviction skips the entry while nonzero.
    int pins = 0;
  };

  /// Evicts LRU partitions nobody has pinned until `bytes` of Storage are
  /// available. Requires mu_ held. Returns ResourceExhausted when spilling
  /// is disallowed, and OutOfMemory when nothing unpinned is left to evict,
  /// whenever the space still is not there.
  Status EvictUntilAvailable(int64_t bytes);

  /// Marks a resident entry most-recently-used and counts a read hit.
  /// Requires mu_ held.
  void Touch(Entry* entry);

  /// Reads a spilled entry's verified block back. It becomes resident
  /// (serialized) when Storage can make room for it. When it cannot —
  /// pinned partitions hold the room, or the block is larger than the
  /// whole region — the records are decoded from the block into
  /// `*passthrough` instead and the entry stays spilled. Requires mu_
  /// held.
  Status FaultIn(Entry* entry, std::vector<Record>* passthrough);

  /// CRC-verifies `partition`'s resident serialized blob (no-op for other
  /// representations), updating the integrity counters either way.
  Status VerifyResident(const Partition& partition);

  MemoryManager* memory_;
  SpillManager* spill_;
  bool allow_spill_;
  FaultInjector* injector_;
  /// Obs instruments, resolved once at construction.
  obs::Counter* const c_inserts_;
  obs::Counter* const c_read_hits_;
  obs::Counter* const c_read_misses_;
  obs::Counter* const c_fault_ins_;
  obs::Counter* const c_evictions_;
  obs::Counter* const c_blocks_verified_;
  obs::Counter* const c_checksum_failures_;
  obs::Gauge* const g_resident_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<Partition*, Entry> entries_;
  /// Most-recently-used at the front.
  std::list<Partition*> lru_;
  int64_t next_key_ = 0;
  /// Monotone per-Insert-call sequence seeding memory-spike draws: each
  /// retry of a rejected insert gets a fresh, deterministic draw.
  int64_t insert_seq_ = 0;
};

}  // namespace vista::df

#endif  // VISTA_DATAFLOW_CACHE_H_
