#include "ml/scaler.h"

#include <algorithm>
#include <cmath>

namespace vista::ml {

Result<StandardScaler> StandardScaler::Fit(df::Engine* engine,
                                           const df::Table& table,
                                           const FeatureExtractor& extract) {
  if (table.num_records() == 0) {
    return Status::InvalidArgument("cannot fit a scaler on an empty table");
  }
  struct Moments {
    std::vector<double> sum, sum_sq;
    int64_t count = 0;
  };
  VISTA_ASSIGN_OR_RETURN(
      ExamplePass<Moments> pass,
      ForEachExample<Moments>(
          engine, table, extract,
          [](Moments* m, const std::vector<float>& x, float) {
            if (m->sum.empty()) {
              m->sum.assign(x.size(), 0.0);
              m->sum_sq.assign(x.size(), 0.0);
            }
            for (size_t i = 0; i < x.size(); ++i) {
              m->sum[i] += x[i];
              m->sum_sq[i] += static_cast<double>(x[i]) * x[i];
            }
            ++m->count;
          }));
  if (pass.dim == 0) {
    return Status::InvalidArgument("scaler saw no feature vectors");
  }
  // Fold the partition moments in partition order.
  std::vector<double> sum(pass.dim, 0.0), sum_sq(pass.dim, 0.0);
  int64_t count = 0;
  for (const Moments& m : pass.slots) {
    for (size_t i = 0; i < m.sum.size(); ++i) {
      sum[i] += m.sum[i];
      sum_sq[i] += m.sum_sq[i];
    }
    count += m.count;
  }
  StandardScaler scaler;
  scaler.mean_.resize(sum.size());
  scaler.stddev_.resize(sum.size());
  for (size_t i = 0; i < sum.size(); ++i) {
    const double mean = sum[i] / static_cast<double>(count);
    const double variance =
        std::max(0.0, sum_sq[i] / static_cast<double>(count) - mean * mean);
    scaler.mean_[i] = mean;
    // Relative floor: the sum-of-squares formula cancels catastrophically
    // for (near-)constant features, so anything within noise of zero is
    // treated as constant.
    const double stddev = std::sqrt(variance);
    scaler.stddev_[i] =
        stddev <= 1e-5 * std::max(1.0, std::fabs(mean)) ? 1.0 : stddev;
  }
  return scaler;
}

Status StandardScaler::Transform(std::vector<float>* x) const {
  if (static_cast<int64_t>(x->size()) != dim()) {
    return Status::InvalidArgument(
        "Transform: feature vector has " + std::to_string(x->size()) +
        " entries, scaler fitted for " + std::to_string(dim()));
  }
  for (size_t i = 0; i < x->size(); ++i) {
    (*x)[i] = static_cast<float>(((*x)[i] - mean_[i]) / stddev_[i]);
  }
  return Status::OK();
}

FeatureExtractor StandardScaler::Wrap(FeatureExtractor inner) const {
  StandardScaler scaler = *this;
  return [scaler, inner = std::move(inner)](const df::Record& r,
                                            std::vector<float>* x,
                                            float* label) -> Status {
    VISTA_RETURN_IF_ERROR(inner(r, x, label));
    return scaler.Transform(x);
  };
}

}  // namespace vista::ml
