#ifndef VISTA_DATAFLOW_RECORD_H_
#define VISTA_DATAFLOW_RECORD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace vista::df {

/// One logical row moving through the dataflow engine.
///
/// The layout mirrors the paper's description of Spark's internal record
/// format (Appendix A / Figure 14): a fixed-length primary key plus
/// variable-length structured features, an optional raw image tensor, and a
/// TensorList holding materialized CNN feature layers. Unused fields are
/// simply empty, so the same type serves Tstr, Timg, and every intermediate
/// table T_i.
struct Record {
  int64_t id = 0;
  /// X: structured feature vector (first element may be the label by table
  /// convention; see features/synthetic.h).
  std::vector<float> struct_features;
  /// I: raw image tensors (CHW). One image per record is the paper's
  /// setting; multiple images per record (its future-work item) are
  /// supported — the executors aggregate their CNN features by
  /// element-wise mean.
  std::vector<Tensor> images;

  bool has_image() const { return !images.empty(); }
  /// First (usually only) image; requires has_image().
  const Tensor& image() const { return images.front(); }
  void set_image(Tensor t) { images.assign(1, std::move(t)); }
  /// Materialized feature layers g_l(f̂_l(I)), one entry per layer of
  /// interest that has been computed so far.
  TensorList features;
};

/// Estimated in-memory (deserialized) size of a record, following the
/// paper's Tungsten-style estimate (Eq. 16): 8 B key + 8 B header per
/// variable-length field + 4 B per float payload element. This is the
/// *deserialized* footprint — it intentionally ignores the sparse wire
/// encoding. Use SerializedRecordBytes when the wire format is what is
/// being metered.
int64_t EstimateRecordBytes(const Record& record);

/// Exact number of bytes SerializeRecord appends for `record`, accounting
/// for the sparse tensor encoding (an (index, value) pair per non-zero when
/// fewer than half the entries are non-zero). Costs one pass over the
/// tensor data (to count non-zeros) but allocates nothing; shuffle and
/// broadcast byte metering and the zero-realloc serializer both use it.
int64_t SerializedRecordBytes(const Record& record);

/// Binary serialization of a record into `out` (appended). The feature
/// tensors use a sparse (index, value) encoding when more than half of the
/// entries are zero — this is the engine's "compressed serialized"
/// persistence format; CNN feature layers post-ReLU are often mostly zeros
/// (the paper measures 13%–36% non-zero).
void SerializeRecord(const Record& record, std::vector<uint8_t>* out);

/// Deserializes one record starting at `*offset` in `buffer`, advancing
/// `*offset`. Fails with InvalidArgument on malformed input.
Result<Record> DeserializeRecord(const std::vector<uint8_t>& buffer,
                                 size_t* offset);

/// Deserializes the first `count` records of `blob`.
Result<std::vector<Record>> DeserializeRecords(
    const std::vector<uint8_t>& blob, int64_t count);

/// Byte-range map of one serialized record inside a blob, produced by
/// ScanRecord by walking headers only — no payload is decoded and nothing
/// is allocated. The late-materialization shuffle path moves and joins
/// records through these views at memcpy speed.
struct SerializedRecordView {
  int64_t id = 0;
  uint32_t num_struct = 0;
  uint32_t num_images = 0;
  uint32_t num_tensors = 0;
  /// Start of the record (its id field) in the scanned blob.
  size_t begin = 0;
  /// Half-open payload ranges into the scanned blob. `structs` covers the
  /// float payload only; `images` and `tensors` cover the serialized tensor
  /// bytes after their u32 counts. `tensors_end` is also the record's end.
  size_t structs_begin = 0, structs_end = 0;
  size_t images_begin = 0, images_end = 0;
  size_t tensors_begin = 0, tensors_end = 0;

  size_t wire_bytes() const { return tensors_end - begin; }
};

/// Scans one serialized record starting at `*offset`, advancing `*offset`
/// past it. Applies the same header validation as DeserializeRecord
/// (truncation, overflow-safe element counts, nnz bounds) but skips every
/// payload instead of materializing it.
Result<SerializedRecordView> ScanRecord(const std::vector<uint8_t>& buffer,
                                        size_t* offset);

/// Exact wire size of the record SpliceJoinedRecord produces for (l, r).
int64_t SplicedJoinBytes(const SerializedRecordView& l,
                         const SerializedRecordView& r);

/// Appends the serialized merge of two serialized records to `out` by
/// splicing their byte ranges — bit-identical to
/// SerializeRecord(MergeRecords(left, right)) without decoding either side:
/// left id, concatenated struct features, the image section of whichever
/// side has images (left wins), and both sides' feature tensors in (left,
/// right) order. Tensor payload bytes are copied verbatim, so the encoding
/// choice (sparse vs dense) is preserved exactly.
void SpliceJoinedRecord(const std::vector<uint8_t>& left_buf,
                        const SerializedRecordView& left,
                        const std::vector<uint8_t>& right_buf,
                        const SerializedRecordView& right,
                        std::vector<uint8_t>* out);

}  // namespace vista::df

#endif  // VISTA_DATAFLOW_RECORD_H_
