#ifndef VISTA_DATAFLOW_PARTITION_H_
#define VISTA_DATAFLOW_PARTITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dataflow/record.h"

namespace vista::df {

class Partition;

/// Spark-style lineage: how to rebuild a partition's records from its
/// parent when both its resident data and its spill file are unreadable.
/// `fn` must be deterministic and re-runnable (it is re-applied verbatim on
/// recovery, so recomputed partitions stay bit-identical to the originals).
struct Lineage {
  std::shared_ptr<Partition> parent;
  std::function<Result<std::vector<Record>>(std::vector<Record>)> fn;
};

/// In-memory storage format of a cached partition (Section 4.2.3).
enum class PersistenceFormat {
  /// Records held as live objects: no translation cost, larger footprint.
  kDeserialized,
  /// Records held as one compact byte blob (with sparse tensor encoding):
  /// smaller footprint, pays encode/decode cost on access.
  kSerialized,
};

const char* PersistenceFormatToString(PersistenceFormat format);

/// A horizontal slice of a table. Exactly one representation is resident at
/// a time: deserialized records, a serialized blob, or nothing (spilled to
/// disk, managed by StorageCache).
class Partition {
 public:
  explicit Partition(std::vector<Record> records);

  /// Constructs a serialized-resident partition directly from an encoded
  /// blob (the late-materialization shuffle produces these without ever
  /// holding Record objects). `num_records` must match the blob's content.
  Partition(std::vector<uint8_t> blob, int64_t num_records);

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  int64_t num_records() const { return num_records_; }
  PersistenceFormat format() const { return format_; }
  bool resident() const { return resident_; }

  /// Current in-memory footprint: the Tungsten-style estimate for
  /// deserialized data, the exact blob size for serialized data, zero when
  /// spilled.
  int64_t memory_bytes() const;

  /// Footprint this partition would occupy in `format`.
  int64_t memory_bytes_as(PersistenceFormat format) const;

  /// Converts the resident representation. No-op if already in `format`.
  Status ConvertTo(PersistenceFormat format);

  /// Returns a copy of the records, decoding if serialized. Fails if the
  /// partition is not resident. The copy is not free even when
  /// deserialized: every record's vectors and tensor handles are copied
  /// (the tensor data buffers are shared).
  Result<std::vector<Record>> ReadRecords() const;

  /// Direct access to deserialized records (must be resident and
  /// deserialized). A managed partition must be pinned
  /// (StorageCache::Pin) while they are read, or eviction may clear them.
  Result<const std::vector<Record>*> records() const;

  /// Serialized blob of the partition's records regardless of the resident
  /// format (encodes on the fly if deserialized). Used for spilling.
  Result<std::vector<uint8_t>> ToBlob() const;

  /// Direct access to the serialized blob (must be resident and
  /// serialized). The zero-decode shuffle path scans this in place.
  Result<const std::vector<uint8_t>*> blob() const;

  /// Integrity check on the resident serialized blob: recomputes its
  /// CRC32C and compares against the checksum captured when the blob
  /// became resident. Returns kDataLoss on mismatch (in-memory rot or a
  /// stray write), OK otherwise — including when there is no blob to
  /// verify (deserialized or spilled). Callers verify before header-scan
  /// paths (ScanRecord / SpliceJoinedRecord) that walk the blob without
  /// decoding it.
  Status VerifyBlob() const;

  /// Test hook: direct mutable access to the resident blob so integrity
  /// tests can corrupt it in place. Never use outside tests.
  std::vector<uint8_t>* mutable_blob_for_testing() { return &blob_; }

  /// Drops in-memory data (after a successful spill).
  void Evict();

  /// Restores from a spilled blob in the given format.
  Status Restore(const std::vector<uint8_t>& blob, PersistenceFormat format);

  /// Records how to rebuild this partition from its parent (set by the
  /// engine on derived partitions). Null for base tables.
  void set_lineage(std::shared_ptr<Lineage> lineage) {
    lineage_ = std::move(lineage);
  }
  const Lineage* lineage() const { return lineage_.get(); }

 private:
  int64_t num_records_ = 0;
  PersistenceFormat format_ = PersistenceFormat::kDeserialized;
  bool resident_ = true;
  std::vector<Record> records_;
  std::vector<uint8_t> blob_;
  /// CRC32C of blob_, captured whenever a serialized blob becomes
  /// resident; invalid while no serialized blob is resident.
  uint32_t blob_crc_ = 0;
  bool blob_crc_valid_ = false;
  std::shared_ptr<Lineage> lineage_;
  // Cached size estimates (valid while num_records_ is unchanged).
  mutable int64_t deserialized_bytes_ = -1;
  mutable int64_t serialized_bytes_ = -1;
};

}  // namespace vista::df

#endif  // VISTA_DATAFLOW_PARTITION_H_
