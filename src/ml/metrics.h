#ifndef VISTA_ML_METRICS_H_
#define VISTA_ML_METRICS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "ml/example_pass.h"

namespace vista::ml {

/// Confusion counts and derived metrics for binary classification.
struct BinaryMetrics {
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t true_negatives = 0;
  int64_t false_negatives = 0;

  int64_t total() const {
    return true_positives + false_positives + true_negatives +
           false_negatives;
  }
  double Accuracy() const;
  double Precision() const;
  double Recall() const;
  /// Harmonic mean of precision and recall; 0 when undefined.
  double F1() const;

  void Add(int predicted, int actual);
  BinaryMetrics& operator+=(const BinaryMetrics& other);
};

/// Scores `predict` (0/1 from a feature vector) against the labels of
/// every example `extract` draws from `table`, in one example pass.
Result<BinaryMetrics> Evaluate(df::Engine* engine, const df::Table& table,
                               const FeatureExtractor& extract,
                               const std::function<int(const float*)>& predict);

/// Computes metrics from parallel prediction/label vectors (values are
/// 0/1; anything nonzero counts as positive).
BinaryMetrics EvaluateBinary(const std::vector<int>& predicted,
                             const std::vector<int>& actual);

/// Area under the ROC curve from predicted probabilities (the
/// Mann-Whitney U formulation, ties counted half). Returns 0.5 when one
/// class is absent.
double RocAuc(const std::vector<double>& scores,
              const std::vector<int>& actual);

}  // namespace vista::ml

#endif  // VISTA_ML_METRICS_H_
