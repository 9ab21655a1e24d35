#include "dataflow/record.h"

#include <cstring>

#include "common/logging.h"

namespace vista::df {
namespace {

/// Hard ceiling on declared tensor elements (256 MiB of floats). Real Vista
/// tensors top out around a few hundred thousand elements (224x224x3
/// images, conv feature maps), so anything near this bound is a corrupt
/// header — reject it before allocating.
constexpr uint64_t kMaxTensorElements = uint64_t{1} << 26;

// ---------------------------------------------------------------------------
// Write-side cursor helpers. SerializeRecord sizes the output exactly first
// (SerializedRecordBytes), resizes once, then streams through a raw cursor —
// no per-field resize+memcpy, no reallocation.

inline void WriteU32(uint8_t** p, uint32_t v) {
  std::memcpy(*p, &v, 4);
  *p += 4;
}

inline void WriteI64(uint8_t** p, int64_t v) {
  std::memcpy(*p, &v, 8);
  *p += 8;
}

inline void WriteF32(uint8_t** p, float v) {
  std::memcpy(*p, &v, 4);
  *p += 4;
}

inline void WriteFloats(uint8_t** p, const float* data, int64_t n) {
  if (n <= 0) return;  // Empty vectors pass data() == nullptr (UB to memcpy).
  std::memcpy(*p, data, static_cast<size_t>(n) * 4);
  *p += static_cast<size_t>(n) * 4;
}

/// True when `n` more bytes are readable at `offset`. Written subtractively:
/// a corrupt header can make `n` huge, and `offset + n` would wrap around
/// and bogusly pass the check.
bool CanRead(const std::vector<uint8_t>& buf, size_t offset, uint64_t n) {
  return offset <= buf.size() && n <= buf.size() - offset;
}

Status ReadU32(const std::vector<uint8_t>& buf, size_t* offset,
               uint32_t* v) {
  if (!CanRead(buf, *offset, 4)) {
    return Status::InvalidArgument("record buffer truncated (u32)");
  }
  std::memcpy(v, buf.data() + *offset, 4);
  *offset += 4;
  return Status::OK();
}

Status ReadI64(const std::vector<uint8_t>& buf, size_t* offset, int64_t* v) {
  if (!CanRead(buf, *offset, 8)) {
    return Status::InvalidArgument("record buffer truncated (i64)");
  }
  std::memcpy(v, buf.data() + *offset, 8);
  *offset += 8;
  return Status::OK();
}

Status ReadFloats(const std::vector<uint8_t>& buf, size_t* offset, int64_t n,
                  float* dst) {
  if (!CanRead(buf, *offset, static_cast<uint64_t>(n) * 4)) {
    return Status::InvalidArgument("record buffer truncated (float array)");
  }
  if (n <= 0) return Status::OK();  // dst may be null for empty vectors.
  std::memcpy(dst, buf.data() + *offset, static_cast<size_t>(n) * 4);
  *offset += static_cast<size_t>(n) * 4;
  return Status::OK();
}

/// Non-zero count of `t` — decides the wire encoding (sparse entry costs
/// 8 B vs 4 B dense, so sparse wins below 50% density).
int64_t TensorNnz(const Tensor& t) {
  const int64_t n = t.num_elements();
  const float* data = t.data();
  int64_t nnz = 0;
  for (int64_t i = 0; i < n; ++i) {
    nnz += (data[i] != 0.0f) ? 1 : 0;
  }
  return nnz;
}

/// Exact wire size of one tensor given its non-zero count.
int64_t SerializedTensorBytes(const Tensor& t, int64_t nnz) {
  const int64_t n = t.num_elements();
  int64_t bytes = 4 + 8 * static_cast<int64_t>(t.shape().rank()) + 1;
  if (nnz * 2 < n) {
    bytes += 8 + 8 * nnz;  // i64 nnz + (u32 index, f32 value) pairs.
  } else {
    bytes += 4 * n;  // Dense float payload.
  }
  return bytes;
}

// Tensor wire format: u32 rank; i64 dims[rank]; u8 encoding
// (0 = dense, 1 = sparse); payload.
void SerializeTensor(const Tensor& t, int64_t nnz, uint8_t** p) {
  WriteU32(p, static_cast<uint32_t>(t.shape().rank()));
  for (int i = 0; i < t.shape().rank(); ++i) WriteI64(p, t.shape().dim(i));
  const int64_t n = t.num_elements();
  const float* data = t.data();
  if (nnz * 2 < n) {
    *(*p)++ = 1;
    WriteI64(p, nnz);
    for (int64_t i = 0; i < n; ++i) {
      if (data[i] != 0.0f) {
        WriteU32(p, static_cast<uint32_t>(i));
        WriteF32(p, data[i]);
      }
    }
  } else {
    *(*p)++ = 0;
    WriteFloats(p, data, n);
  }
}

Result<Tensor> DeserializeTensor(const std::vector<uint8_t>& buf,
                                 size_t* offset) {
  uint32_t rank = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buf, offset, &rank));
  if (rank > 8) return Status::InvalidArgument("tensor rank too large");
  std::vector<int64_t> dims(rank);
  // Validate the element count while parsing dims, overflow-safely, so a
  // corrupt header is rejected before the tensor is allocated (a bad dim
  // used to trigger a multi-GB allocation here).
  uint64_t elements = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    VISTA_RETURN_IF_ERROR(ReadI64(buf, offset, &dims[i]));
    if (dims[i] < 0) return Status::InvalidArgument("negative tensor dim");
    const uint64_t d = static_cast<uint64_t>(dims[i]);
    if (d == 0) {
      elements = 0;
    } else if (elements > kMaxTensorElements / d) {
      return Status::InvalidArgument("tensor element count too large");
    } else {
      elements *= d;
    }
  }
  if (elements > kMaxTensorElements) {
    return Status::InvalidArgument("tensor element count too large");
  }
  if (!CanRead(buf, *offset, 1)) {
    return Status::InvalidArgument("record buffer truncated (encoding)");
  }
  const uint8_t encoding = buf[(*offset)++];
  if (encoding == 0) {
    // The whole dense payload must be present before allocating.
    if (!CanRead(buf, *offset, elements * 4)) {
      return Status::InvalidArgument("record buffer truncated (dense data)");
    }
    Tensor t(Shape(std::move(dims)));
    VISTA_RETURN_IF_ERROR(ReadFloats(buf, offset, t.num_elements(),
                                     t.mutable_data()));
    return t;
  }
  if (encoding == 1) {
    int64_t nnz = 0;
    VISTA_RETURN_IF_ERROR(ReadI64(buf, offset, &nnz));
    if (nnz < 0 || static_cast<uint64_t>(nnz) > elements) {
      return Status::InvalidArgument("bad sparse tensor nnz");
    }
    // All nnz (index, value) pairs must be present before allocating; one
    // bounds check up front lets the decode loop run unchecked.
    if (!CanRead(buf, *offset, static_cast<uint64_t>(nnz) * 8)) {
      return Status::InvalidArgument("record buffer truncated (sparse data)");
    }
    Tensor t(Shape(std::move(dims)));
    float* out = t.mutable_data();
    const uint8_t* src = buf.data() + *offset;
    for (int64_t i = 0; i < nnz; ++i) {
      uint32_t idx = 0;
      float v = 0;
      std::memcpy(&idx, src, 4);
      std::memcpy(&v, src + 4, 4);
      src += 8;
      if (idx >= elements) {
        return Status::InvalidArgument("sparse index out of range");
      }
      out[idx] = v;
    }
    *offset += static_cast<size_t>(nnz) * 8;
    return t;
  }
  return Status::InvalidArgument("unknown tensor encoding");
}

}  // namespace

int64_t EstimateRecordBytes(const Record& record) {
  // 8 B fixed-length key + null bitmap word.
  int64_t bytes = 8 + 8;
  // Variable-length fields carry an 8 B offset/length header each.
  bytes += 8 + static_cast<int64_t>(record.struct_features.size()) * 4;
  for (const Tensor& img : record.images) bytes += 8 + img.num_bytes();
  for (const Tensor& t : record.features.tensors()) {
    bytes += 8 + t.num_bytes();
  }
  return bytes;
}

int64_t SerializedRecordBytes(const Record& record) {
  // i64 id + u32 struct count + floats + u32 image count + u32 tensor count.
  int64_t bytes = 8 + 4 +
                  static_cast<int64_t>(record.struct_features.size()) * 4 +
                  4 + 4;
  for (const Tensor& img : record.images) {
    bytes += SerializedTensorBytes(img, TensorNnz(img));
  }
  for (const Tensor& t : record.features.tensors()) {
    bytes += SerializedTensorBytes(t, TensorNnz(t));
  }
  return bytes;
}

void SerializeRecord(const Record& record, std::vector<uint8_t>* out) {
  // Size-precompute pass: count non-zeros once per tensor (reused for the
  // encoding decision), then do a single resize and stream through a raw
  // cursor. Callers that pre-reserve (Partition::ToBlob) never reallocate.
  const size_t n_images = record.images.size();
  const size_t n_tensors = record.features.tensors().size();
  std::vector<int64_t> nnz(n_images + n_tensors);
  int64_t total = 8 + 4 +
                  static_cast<int64_t>(record.struct_features.size()) * 4 +
                  4 + 4;
  for (size_t i = 0; i < n_images; ++i) {
    nnz[i] = TensorNnz(record.images[i]);
    total += SerializedTensorBytes(record.images[i], nnz[i]);
  }
  for (size_t i = 0; i < n_tensors; ++i) {
    const Tensor& t = record.features.tensors()[i];
    nnz[n_images + i] = TensorNnz(t);
    total += SerializedTensorBytes(t, nnz[n_images + i]);
  }
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(total));
  uint8_t* p = out->data() + base;
  WriteI64(&p, record.id);
  WriteU32(&p, static_cast<uint32_t>(record.struct_features.size()));
  WriteFloats(&p, record.struct_features.data(),
              static_cast<int64_t>(record.struct_features.size()));
  WriteU32(&p, static_cast<uint32_t>(n_images));
  for (size_t i = 0; i < n_images; ++i) {
    SerializeTensor(record.images[i], nnz[i], &p);
  }
  WriteU32(&p, static_cast<uint32_t>(n_tensors));
  for (size_t i = 0; i < n_tensors; ++i) {
    SerializeTensor(record.features.tensors()[i], nnz[n_images + i], &p);
  }
  VISTA_DCHECK(p == out->data() + out->size());
}

Result<Record> DeserializeRecord(const std::vector<uint8_t>& buffer,
                                 size_t* offset) {
  Record record;
  VISTA_RETURN_IF_ERROR(ReadI64(buffer, offset, &record.id));
  uint32_t n_struct = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &n_struct));
  // Check the payload is present before sizing the vector: a corrupt count
  // must not drive a huge allocation.
  if (!CanRead(buffer, *offset, static_cast<uint64_t>(n_struct) * 4)) {
    return Status::InvalidArgument("record buffer truncated (struct)");
  }
  record.struct_features.resize(n_struct);
  VISTA_RETURN_IF_ERROR(
      ReadFloats(buffer, offset, n_struct, record.struct_features.data()));
  uint32_t n_images = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &n_images));
  if (n_images > 1 << 20) {
    return Status::InvalidArgument("implausible image count in record");
  }
  for (uint32_t i = 0; i < n_images; ++i) {
    VISTA_ASSIGN_OR_RETURN(Tensor img, DeserializeTensor(buffer, offset));
    record.images.push_back(std::move(img));
  }
  uint32_t n_tensors = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &n_tensors));
  if (n_tensors > 1 << 20) {
    return Status::InvalidArgument("implausible tensor count in record");
  }
  for (uint32_t i = 0; i < n_tensors; ++i) {
    VISTA_ASSIGN_OR_RETURN(Tensor t, DeserializeTensor(buffer, offset));
    record.features.Append(std::move(t));
  }
  return record;
}

Result<std::vector<Record>> DeserializeRecords(
    const std::vector<uint8_t>& blob, int64_t count) {
  std::vector<Record> records;
  records.reserve(static_cast<size_t>(count));
  size_t offset = 0;
  for (int64_t i = 0; i < count; ++i) {
    VISTA_ASSIGN_OR_RETURN(Record r, DeserializeRecord(blob, &offset));
    records.push_back(std::move(r));
  }
  return records;
}

namespace {

/// Skips one serialized tensor without materializing it, with the same
/// validation as DeserializeTensor.
Status SkipTensor(const std::vector<uint8_t>& buf, size_t* offset) {
  uint32_t rank = 0;
  VISTA_RETURN_IF_ERROR(ReadU32(buf, offset, &rank));
  if (rank > 8) return Status::InvalidArgument("tensor rank too large");
  uint64_t elements = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    int64_t dim = 0;
    VISTA_RETURN_IF_ERROR(ReadI64(buf, offset, &dim));
    if (dim < 0) return Status::InvalidArgument("negative tensor dim");
    const uint64_t d = static_cast<uint64_t>(dim);
    if (d == 0) {
      elements = 0;
    } else if (elements > kMaxTensorElements / d) {
      return Status::InvalidArgument("tensor element count too large");
    } else {
      elements *= d;
    }
  }
  if (elements > kMaxTensorElements) {
    return Status::InvalidArgument("tensor element count too large");
  }
  if (!CanRead(buf, *offset, 1)) {
    return Status::InvalidArgument("record buffer truncated (encoding)");
  }
  const uint8_t encoding = buf[(*offset)++];
  if (encoding == 0) {
    if (!CanRead(buf, *offset, elements * 4)) {
      return Status::InvalidArgument("record buffer truncated (dense data)");
    }
    *offset += static_cast<size_t>(elements) * 4;
    return Status::OK();
  }
  if (encoding == 1) {
    int64_t nnz = 0;
    VISTA_RETURN_IF_ERROR(ReadI64(buf, offset, &nnz));
    if (nnz < 0 || static_cast<uint64_t>(nnz) > elements) {
      return Status::InvalidArgument("bad sparse tensor nnz");
    }
    if (!CanRead(buf, *offset, static_cast<uint64_t>(nnz) * 8)) {
      return Status::InvalidArgument("record buffer truncated (sparse data)");
    }
    *offset += static_cast<size_t>(nnz) * 8;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown tensor encoding");
}

}  // namespace

Result<SerializedRecordView> ScanRecord(const std::vector<uint8_t>& buffer,
                                        size_t* offset) {
  SerializedRecordView view;
  view.begin = *offset;
  VISTA_RETURN_IF_ERROR(ReadI64(buffer, offset, &view.id));
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &view.num_struct));
  if (!CanRead(buffer, *offset, static_cast<uint64_t>(view.num_struct) * 4)) {
    return Status::InvalidArgument("record buffer truncated (struct)");
  }
  view.structs_begin = *offset;
  *offset += static_cast<size_t>(view.num_struct) * 4;
  view.structs_end = *offset;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &view.num_images));
  if (view.num_images > 1 << 20) {
    return Status::InvalidArgument("implausible image count in record");
  }
  view.images_begin = *offset;
  for (uint32_t i = 0; i < view.num_images; ++i) {
    VISTA_RETURN_IF_ERROR(SkipTensor(buffer, offset));
  }
  view.images_end = *offset;
  VISTA_RETURN_IF_ERROR(ReadU32(buffer, offset, &view.num_tensors));
  if (view.num_tensors > 1 << 20) {
    return Status::InvalidArgument("implausible tensor count in record");
  }
  view.tensors_begin = *offset;
  for (uint32_t i = 0; i < view.num_tensors; ++i) {
    VISTA_RETURN_IF_ERROR(SkipTensor(buffer, offset));
  }
  view.tensors_end = *offset;
  return view;
}

int64_t SplicedJoinBytes(const SerializedRecordView& l,
                         const SerializedRecordView& r) {
  // MergeRecords keeps left's images when present, right's otherwise.
  const SerializedRecordView& img = l.num_images > 0 ? l : r;
  return 8 + 4 + static_cast<int64_t>(l.structs_end - l.structs_begin) +
         static_cast<int64_t>(r.structs_end - r.structs_begin) + 4 +
         static_cast<int64_t>(img.images_end - img.images_begin) + 4 +
         static_cast<int64_t>(l.tensors_end - l.tensors_begin) +
         static_cast<int64_t>(r.tensors_end - r.tensors_begin);
}

void SpliceJoinedRecord(const std::vector<uint8_t>& left_buf,
                        const SerializedRecordView& left,
                        const std::vector<uint8_t>& right_buf,
                        const SerializedRecordView& right,
                        std::vector<uint8_t>* out) {
  const bool left_images = left.num_images > 0;
  const std::vector<uint8_t>& img_buf = left_images ? left_buf : right_buf;
  const SerializedRecordView& img = left_images ? left : right;
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(SplicedJoinBytes(left, right)));
  uint8_t* p = out->data() + base;
  WriteI64(&p, left.id);
  WriteU32(&p, left.num_struct + right.num_struct);
  std::memcpy(p, left_buf.data() + left.structs_begin,
              left.structs_end - left.structs_begin);
  p += left.structs_end - left.structs_begin;
  std::memcpy(p, right_buf.data() + right.structs_begin,
              right.structs_end - right.structs_begin);
  p += right.structs_end - right.structs_begin;
  WriteU32(&p, img.num_images);
  std::memcpy(p, img_buf.data() + img.images_begin,
              img.images_end - img.images_begin);
  p += img.images_end - img.images_begin;
  WriteU32(&p, left.num_tensors + right.num_tensors);
  std::memcpy(p, left_buf.data() + left.tensors_begin,
              left.tensors_end - left.tensors_begin);
  p += left.tensors_end - left.tensors_begin;
  std::memcpy(p, right_buf.data() + right.tensors_begin,
              right.tensors_end - right.tensors_begin);
  p += right.tensors_end - right.tensors_begin;
  VISTA_DCHECK(p == out->data() + out->size());
}

}  // namespace vista::df
