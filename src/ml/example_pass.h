#ifndef VISTA_ML_EXAMPLE_PASS_H_
#define VISTA_ML_EXAMPLE_PASS_H_

#include <algorithm>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"

namespace vista::ml {

/// Maps a dataflow record to a training example: fills `*x` with the
/// feature vector and `*label` with the binary target (0/1). The extractor
/// must produce the same dimensionality for every record.
using FeatureExtractor =
    std::function<Status(const df::Record&, std::vector<float>* x,
                         float* label)>;

/// What one example pass leaves for its caller to fold.
template <typename Acc>
struct ExamplePass {
  // std::vector<bool> packs slots into shared words, so concurrent tasks
  // writing neighbouring slots would race.
  static_assert(!std::is_same_v<Acc, bool>, "use a byte-sized accumulator");
  /// Length of every extracted feature vector (0 for an empty table).
  int64_t dim = 0;
  /// One accumulator per partition. Folding them in this (partition) order
  /// makes a reduction bit-identical across thread counts, task-completion
  /// orders and retried tasks.
  std::vector<Acc> slots;
};

namespace internal {
/// Adopts `got` as `*dim` while that is unset (< 0); afterwards fails with
/// InvalidArgument unless `got` matches it.
inline Status MatchDim(int64_t got, int64_t* dim) {
  if (*dim < 0) *dim = got;
  if (got == *dim) return Status::OK();
  return Status::InvalidArgument(
      "inconsistent feature dimensionality: got " + std::to_string(got) +
      ", expected " + std::to_string(*dim));
}
}  // namespace internal

/// The one feature-extraction path of the downstream models: runs
/// `extract` over every record of `table` as engine map tasks (fault draws,
/// retries, read-ahead, lineage recomputation) and calls
/// `add(&slot, x, label)` to fold each example into its partition's
/// accumulator. Every task attempt starts from `Acc{}` and stores its slot
/// only on success, so retries never double count. Fails with
/// InvalidArgument when feature vectors differ in length.
template <typename Acc, typename AddFn>
Result<ExamplePass<Acc>> ForEachExample(df::Engine* engine,
                                        const df::Table& table,
                                        const FeatureExtractor& extract,
                                        AddFn add) {
  ExamplePass<Acc> pass;
  pass.slots.resize(table.num_partitions());
  std::vector<int64_t> dims(table.num_partitions(), -1);
  VISTA_RETURN_IF_ERROR(engine->ForEachPartition(
      table,
      [&](int64_t i, const std::vector<df::Record>& records) -> Status {
        Acc acc{};
        int64_t dim = -1;
        std::vector<float> x;
        float label = 0;
        for (const df::Record& r : records) {
          VISTA_RETURN_IF_ERROR(extract(r, &x, &label));
          VISTA_RETURN_IF_ERROR(
              internal::MatchDim(static_cast<int64_t>(x.size()), &dim));
          add(&acc, x, label);
        }
        pass.slots[i] = std::move(acc);
        dims[i] = dim;
        return Status::OK();
      }));
  int64_t dim = -1;
  for (int64_t d : dims) {
    if (d >= 0) VISTA_RETURN_IF_ERROR(internal::MatchDim(d, &dim));
  }
  pass.dim = std::max<int64_t>(dim, 0);
  return pass;
}

}  // namespace vista::ml

#endif  // VISTA_ML_EXAMPLE_PASS_H_
