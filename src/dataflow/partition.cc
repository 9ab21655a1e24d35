#include "dataflow/partition.h"

#include "common/checksum.h"

namespace vista::df {

const char* PersistenceFormatToString(PersistenceFormat format) {
  switch (format) {
    case PersistenceFormat::kDeserialized:
      return "deserialized";
    case PersistenceFormat::kSerialized:
      return "serialized";
  }
  return "?";
}

Partition::Partition(std::vector<Record> records)
    : num_records_(static_cast<int64_t>(records.size())),
      records_(std::move(records)) {}

Partition::Partition(std::vector<uint8_t> blob, int64_t num_records)
    : num_records_(num_records),
      format_(PersistenceFormat::kSerialized),
      blob_(std::move(blob)) {
  serialized_bytes_ = static_cast<int64_t>(blob_.size());
  blob_crc_ = Crc32c(blob_.data(), blob_.size());
  blob_crc_valid_ = true;
}

int64_t Partition::memory_bytes() const {
  if (!resident_) return 0;
  return memory_bytes_as(format_);
}

int64_t Partition::memory_bytes_as(PersistenceFormat format) const {
  if (format == PersistenceFormat::kDeserialized) {
    if (deserialized_bytes_ < 0) {
      int64_t bytes = 0;
      if (resident_ && format_ == PersistenceFormat::kDeserialized) {
        for (const Record& r : records_) bytes += EstimateRecordBytes(r);
        deserialized_bytes_ = bytes;
      } else {
        // Decode to estimate; rare path (size queries on serialized data).
        auto records = ReadRecords();
        if (!records.ok()) return 0;
        for (const Record& r : *records) bytes += EstimateRecordBytes(r);
        deserialized_bytes_ = bytes;
      }
    }
    return deserialized_bytes_;
  }
  if (serialized_bytes_ < 0) {
    if (resident_ && format_ == PersistenceFormat::kSerialized) {
      serialized_bytes_ = static_cast<int64_t>(blob_.size());
    } else if (resident_) {
      // Exact wire size without encoding anything (this used to build a
      // throwaway blob just to measure it).
      int64_t bytes = 0;
      for (const Record& r : records_) bytes += SerializedRecordBytes(r);
      serialized_bytes_ = bytes;
    } else {
      return 0;  // Spilled: nothing to measure (matches old ToBlob failure).
    }
  }
  return serialized_bytes_;
}

Status Partition::ConvertTo(PersistenceFormat format) {
  if (!resident_) {
    return Status::FailedPrecondition("cannot convert a spilled partition");
  }
  if (format == format_) return Status::OK();
  if (format == PersistenceFormat::kSerialized) {
    VISTA_ASSIGN_OR_RETURN(blob_, ToBlob());
    serialized_bytes_ = static_cast<int64_t>(blob_.size());
    blob_crc_ = Crc32c(blob_.data(), blob_.size());
    blob_crc_valid_ = true;
    records_.clear();
    records_.shrink_to_fit();
  } else {
    VISTA_ASSIGN_OR_RETURN(records_, DeserializeRecords(blob_, num_records_));
    blob_.clear();
    blob_.shrink_to_fit();
    blob_crc_valid_ = false;
  }
  format_ = format;
  return Status::OK();
}

Result<std::vector<Record>> Partition::ReadRecords() const {
  if (!resident_) {
    return Status::FailedPrecondition("partition is spilled");
  }
  if (format_ == PersistenceFormat::kDeserialized) {
    // A full copy: tensors share their buffers, but every record's vectors
    // and the tensors' shape and refcount are copied. Read-only passes
    // borrow records() instead (StorageCache::Pin).
    return records_;
  }
  return DeserializeRecords(blob_, num_records_);
}

Result<const std::vector<Record>*> Partition::records() const {
  if (!resident_ || format_ != PersistenceFormat::kDeserialized) {
    return Status::FailedPrecondition(
        "records() requires a resident deserialized partition");
  }
  return &records_;
}

Result<const std::vector<uint8_t>*> Partition::blob() const {
  if (!resident_ || format_ != PersistenceFormat::kSerialized) {
    return Status::FailedPrecondition(
        "blob() requires a resident serialized partition");
  }
  return &blob_;
}

Result<std::vector<uint8_t>> Partition::ToBlob() const {
  if (!resident_) {
    return Status::FailedPrecondition("partition is spilled");
  }
  if (format_ == PersistenceFormat::kSerialized) return blob_;
  // Exact-size reservation up front: SerializeRecord then appends through
  // a raw cursor without ever reallocating the blob.
  int64_t total = 0;
  for (const Record& r : records_) total += SerializedRecordBytes(r);
  std::vector<uint8_t> blob;
  blob.reserve(static_cast<size_t>(total));
  for (const Record& r : records_) SerializeRecord(r, &blob);
  return blob;
}

Status Partition::VerifyBlob() const {
  if (!resident_ || format_ != PersistenceFormat::kSerialized ||
      !blob_crc_valid_) {
    return Status::OK();  // No serialized blob resident: nothing to check.
  }
  if (Crc32c(blob_.data(), blob_.size()) != blob_crc_) {
    return Status::DataLoss(
        "resident serialized blob failed CRC32C verification");
  }
  return Status::OK();
}

void Partition::Evict() {
  records_.clear();
  records_.shrink_to_fit();
  blob_.clear();
  blob_.shrink_to_fit();
  blob_crc_valid_ = false;
  resident_ = false;
}

Status Partition::Restore(const std::vector<uint8_t>& blob,
                          PersistenceFormat format) {
  if (resident_) {
    return Status::FailedPrecondition("partition is already resident");
  }
  blob_ = blob;
  blob_crc_ = Crc32c(blob_.data(), blob_.size());
  blob_crc_valid_ = true;
  resident_ = true;
  format_ = PersistenceFormat::kSerialized;
  return ConvertTo(format);
}

}  // namespace vista::df
