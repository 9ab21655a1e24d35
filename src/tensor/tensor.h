#ifndef VISTA_TENSOR_TENSOR_H_
#define VISTA_TENSOR_TENSOR_H_

#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "tensor/shape.h"

namespace vista {

/// Dense row-major float32 tensor.
///
/// Copying a Tensor is cheap: copies share the underlying buffer, like Arrow
/// arrays. Treat shared tensors as immutable; call Clone() before mutating a
/// tensor that may be aliased. This keeps the dataflow engine's record
/// movement (shuffles, joins, caching) allocation-free where possible.
class Tensor {
 public:
  /// An empty rank-0 tensor holding a single zero.
  Tensor() : Tensor(Shape{}) {}

  /// Allocates a zero-initialized tensor of `shape`.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(std::make_shared<std::vector<float>>(shape_.num_elements(),
                                                   0.0f)) {}

  /// Wraps existing values; `values.size()` must equal
  /// `shape.num_elements()`.
  Tensor(Shape shape, std::vector<float> values)
      : shape_(std::move(shape)),
        data_(std::make_shared<std::vector<float>>(std::move(values))) {
    VISTA_CHECK_EQ(static_cast<int64_t>(data_->size()),
                   shape_.num_elements());
  }

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }

  static Tensor Full(Shape shape, float value) {
    Tensor t(std::move(shape));
    for (float& v : *t.data_) v = value;
    return t;
  }

  /// I.i.d. Gaussian entries with the given std (mean 0).
  static Tensor RandomGaussian(Shape shape, Rng* rng, float stddev = 1.0f) {
    Tensor t(std::move(shape));
    for (float& v : *t.data_) {
      v = static_cast<float>(rng->NextGaussian()) * stddev;
    }
    return t;
  }

  const Shape& shape() const { return shape_; }
  int64_t num_elements() const { return shape_.num_elements(); }
  int64_t num_bytes() const { return shape_.num_bytes(); }

  const float* data() const { return data_->data(); }
  float* mutable_data() { return data_->data(); }

  float at(int64_t flat_index) const {
    VISTA_DCHECK(flat_index >= 0 && flat_index < num_elements());
    return (*data_)[flat_index];
  }
  void set(int64_t flat_index, float value) {
    VISTA_DCHECK(flat_index >= 0 && flat_index < num_elements());
    (*data_)[flat_index] = value;
  }

  /// 3D accessor for CHW image tensors.
  float at3(int64_t c, int64_t h, int64_t w) const {
    return (*data_)[(c * shape_.dim(1) + h) * shape_.dim(2) + w];
  }

  /// Deep copy with a fresh buffer.
  Tensor Clone() const {
    return Tensor(shape_, std::vector<float>(*data_));
  }

  /// These values in a buffer no other tensor shares: this tensor's own
  /// buffer when it is its only owner, a copy otherwise. An op that takes
  /// its input by value writes its result over it this way, so a caller
  /// that hands over its only reference (std::move) saves a copy.
  Tensor Unshared() && {
    if (data_.use_count() == 1) return std::move(*this);
    return Clone();
  }

  /// Returns a rank-1 view-copy of this tensor's values (FlattenOp,
  /// Definition 3.5).
  Tensor Flatten() const {
    return Tensor(Shape{num_elements()}, std::vector<float>(*data_));
  }

  /// The same values under `shape`, which must have the same element
  /// count. Shares the buffer like a copy does (no values are moved).
  Tensor Reshape(Shape shape) const {
    VISTA_CHECK_EQ(shape.num_elements(), num_elements());
    Tensor t = *this;
    t.shape_ = std::move(shape);
    return t;
  }

  /// True if both tensors have the same shape and element-wise equal values
  /// within `tol`.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

 private:
  Shape shape_;
  std::shared_ptr<std::vector<float>> data_;
};

/// Indexed list of tensors of potentially different shapes (Definition 3.2).
///
/// Used to carry the materialized feature layers of one record through the
/// dataflow engine: entry i holds the (flattened or raw) feature tensor of
/// the i-th layer of interest.
class TensorList {
 public:
  TensorList() = default;
  explicit TensorList(std::vector<Tensor> tensors)
      : tensors_(std::move(tensors)) {}

  void Append(Tensor t) { tensors_.push_back(std::move(t)); }

  int size() const { return static_cast<int>(tensors_.size()); }
  bool empty() const { return tensors_.empty(); }
  const Tensor& at(int i) const { return tensors_[i]; }
  Tensor& at(int i) { return tensors_[i]; }

  /// Total payload bytes across all entries.
  int64_t num_bytes() const {
    int64_t n = 0;
    for (const auto& t : tensors_) n += t.num_bytes();
    return n;
  }

  const std::vector<Tensor>& tensors() const { return tensors_; }

 private:
  std::vector<Tensor> tensors_;
};

}  // namespace vista

#endif  // VISTA_TENSOR_TENSOR_H_
