#include "dataflow/cache.h"

#include <algorithm>

namespace vista::df {

StorageCache::StorageCache(MemoryManager* memory, SpillManager* spill,
                           bool allow_spill, FaultInjector* injector,
                           obs::Registry& metrics)
    : memory_(memory),
      spill_(spill),
      allow_spill_(allow_spill),
      injector_(injector),
      c_inserts_(metrics.counter("cache.inserts")),
      c_read_hits_(metrics.counter("cache.read_hits")),
      c_read_misses_(metrics.counter("cache.read_misses")),
      c_fault_ins_(metrics.counter("cache.fault_ins")),
      c_evictions_(metrics.counter("cache.evictions")),
      c_blocks_verified_(metrics.counter("integrity.blocks_verified")),
      c_checksum_failures_(metrics.counter("integrity.checksum_failures")),
      g_resident_bytes_(metrics.gauge("cache.resident_bytes")) {}

Status StorageCache::EvictUntilAvailable(int64_t bytes) {
  for (;;) {
    if (memory_->Available(MemoryRegion::kStorage) >= bytes) {
      return Status::OK();
    }
    if (!allow_spill_) {
      return Status::ResourceExhausted(
          "Storage memory exhausted and spilling is disabled "
          "(memory-only mode)");
    }
    // Evict the least-recently-used resident partition no task has pinned.
    const auto victim =
        std::find_if(lru_.rbegin(), lru_.rend(), [this](Partition* p) {
          return entries_.at(p).pins == 0;
        });
    if (victim == lru_.rend()) {
      // Caller will spill the incoming partition itself.
      return Status::OutOfMemory("storage cannot fit partition");
    }
    Partition* partition = *victim;
    Entry& entry = entries_.at(partition);
    // Hand the blob to the background writer: the caller continues
    // serializing/inserting while the disk write is in flight. A write
    // that later fails surfaces at the engine's Flush (end of Persist) or
    // as a NotFound read that lineage recomputation absorbs.
    VISTA_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, partition->ToBlob());
    VISTA_RETURN_IF_ERROR(spill_->WriteAsync(entry.key, std::move(blob)));
    partition->Evict();
    memory_->Release(MemoryRegion::kStorage, entry.charged_bytes);
    c_evictions_->Add(1);
    g_resident_bytes_->Add(-entry.charged_bytes);
    entry.charged_bytes = 0;
    lru_.erase(entry.lru_it);
    entry.in_lru = false;
  }
}

Status StorageCache::Insert(const std::shared_ptr<Partition>& partition) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(partition.get()) > 0) {
    return Status::OK();  // Already managed.
  }
  if (injector_ != nullptr) {
    // A transient memory spike rejects this insert attempt; the engine's
    // retry loop re-tries it (with a fresh draw) rather than crashing.
    VISTA_RETURN_IF_ERROR(injector_->MaybeFail(
        FaultSite::kMemorySpike, static_cast<uint64_t>(insert_seq_++),
        "cache insert"));
  }
  Entry entry;
  entry.key = next_key_++;
  entry.partition = partition;
  const int64_t bytes = partition->memory_bytes();
  Status avail = EvictUntilAvailable(bytes);
  if (avail.ok()) {
    Status reserve = memory_->TryReserve(MemoryRegion::kStorage, bytes);
    if (reserve.ok()) {
      entry.charged_bytes = bytes;
      lru_.push_front(partition.get());
      entry.lru_it = lru_.begin();
      entry.in_lru = true;
      entries_.emplace(partition.get(), std::move(entry));
      c_inserts_->Add(1);
      g_resident_bytes_->Add(bytes);
      return Status::OK();
    }
    avail = reserve;
  }
  if (avail.IsResourceExhausted()) return avail;  // Memory-only crash.
  // Spill the incoming partition directly: it is managed but non-resident.
  VISTA_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, partition->ToBlob());
  VISTA_RETURN_IF_ERROR(spill_->WriteAsync(entry.key, std::move(blob)));
  partition->Evict();
  entries_.emplace(partition.get(), std::move(entry));
  c_inserts_->Add(1);
  return Status::OK();
}

Status StorageCache::FaultIn(Entry* entry,
                             std::vector<Record>* passthrough) {
  Partition* p = entry->partition.get();
  VISTA_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, spill_->Read(entry->key));
  // Restored partitions come back in the compact serialized format; the
  // blob size is exactly what Storage must hold.
  const int64_t bytes = static_cast<int64_t>(blob.size());
  Status room = EvictUntilAvailable(bytes);
  if (room.IsOutOfMemory()) {
    VISTA_ASSIGN_OR_RETURN(*passthrough,
                           DeserializeRecords(blob, p->num_records()));
    return Status::OK();
  }
  VISTA_RETURN_IF_ERROR(room);
  VISTA_RETURN_IF_ERROR(memory_->TryReserve(MemoryRegion::kStorage, bytes));
  Status restored = p->Restore(blob, PersistenceFormat::kSerialized);
  if (!restored.ok()) {
    memory_->Release(MemoryRegion::kStorage, bytes);
    return restored;
  }
  entry->charged_bytes = bytes;
  spill_->Remove(entry->key);
  lru_.push_front(p);
  entry->lru_it = lru_.begin();
  entry->in_lru = true;
  c_fault_ins_->Add(1);
  g_resident_bytes_->Add(bytes);
  return Status::OK();
}

Status StorageCache::VerifyResident(const Partition& partition) {
  if (!partition.resident() ||
      partition.format() != PersistenceFormat::kSerialized) {
    return Status::OK();  // No serialized blob to check.
  }
  Status st = partition.VerifyBlob();
  if (st.ok()) {
    c_blocks_verified_->Add(1);
  } else {
    c_checksum_failures_->Add(1);
  }
  return st;
}

Result<std::vector<Record>> StorageCache::ReadThrough(
    const std::shared_ptr<Partition>& partition) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(partition.get());
  if (it == entries_.end()) {
    // Unmanaged partition: plain read — still verified before decode.
    VISTA_RETURN_IF_ERROR(VerifyResident(*partition));
    return partition->ReadRecords();
  }
  Entry& entry = it->second;
  if (!partition->resident()) {
    // A managed read that has to go to disk is the cache's miss case.
    c_read_misses_->Add(1);
    std::vector<Record> passthrough;
    VISTA_RETURN_IF_ERROR(FaultIn(&entry, &passthrough));
    if (!partition->resident()) return passthrough;
  } else if (entry.in_lru) {
    Touch(&entry);
  }
  // Verify the serialized representation (restored from disk or long
  // resident) before ReadRecords header-scans and decodes it.
  VISTA_RETURN_IF_ERROR(VerifyResident(*partition));
  return partition->ReadRecords();
}

int64_t StorageCache::SerializedBytes(
    const std::shared_ptr<Partition>& partition) const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition->memory_bytes_as(PersistenceFormat::kSerialized);
}

void StorageCache::Touch(Entry* entry) {
  lru_.erase(entry->lru_it);
  lru_.push_front(entry->partition.get());
  entry->lru_it = lru_.begin();
  c_read_hits_->Add(1);
}

const std::vector<Record>* StorageCache::Pin(
    const std::shared_ptr<Partition>& partition) {
  std::lock_guard<std::mutex> lock(mu_);
  auto records = partition->records();
  if (!records.ok()) return nullptr;  // Serialized or spilled.
  auto it = entries_.find(partition.get());
  if (it != entries_.end()) {
    ++it->second.pins;
    Touch(&it->second);
  }
  return *records;
}

bool StorageCache::PinSerialized(
    const std::shared_ptr<Partition>& partition) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!partition->blob().ok()) return false;  // Deserialized or spilled.
  auto it = entries_.find(partition.get());
  if (it != entries_.end()) ++it->second.pins;
  return true;
}

void StorageCache::Unpin(const std::shared_ptr<Partition>& partition) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(partition.get());
  if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
}

void StorageCache::Prefetch(const std::shared_ptr<Partition>& partition) {
  int64_t key = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(partition.get());
    if (it == entries_.end() || partition->resident()) return;
    key = it->second.key;
  }
  // Outside mu_: the hint only touches SpillManager state, and holding the
  // cache lock across it would serialize hints against ReadThrough.
  spill_->Prefetch(key);
}

void StorageCache::Remove(const std::shared_ptr<Partition>& partition) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(partition.get());
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  if (entry.in_lru) lru_.erase(entry.lru_it);
  memory_->Release(MemoryRegion::kStorage, entry.charged_bytes);
  g_resident_bytes_->Add(-entry.charged_bytes);
  spill_->Remove(entry.key);
  entries_.erase(it);
}

int64_t StorageCache::num_managed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

int64_t StorageCache::num_spilled() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [p, entry] : entries_) {
    if (!p->resident()) ++n;
  }
  return n;
}

}  // namespace vista::df
