#ifndef VISTA_ML_LOGISTIC_REGRESSION_H_
#define VISTA_ML_LOGISTIC_REGRESSION_H_

#include <vector>

#include "common/status.h"
#include "dataflow/engine.h"
#include "ml/example_pass.h"

namespace vista::ml {

/// Configuration for elastic-net logistic regression trained with full-batch
/// gradient descent over a partitioned table (the paper's downstream M,
/// Section 5: "logistic regression with elastic net regularization with
/// α = 0.5 and a regularization value of 0.01", 10 iterations).
struct LogisticRegressionConfig {
  int iterations = 10;
  double learning_rate = 0.3;
  /// Overall regularization strength λ.
  double reg_lambda = 0.01;
  /// Elastic-net mixing α: 1 = pure L1, 0 = pure L2.
  double elastic_net_alpha = 0.5;
};

/// A trained binary logistic regression model.
class LogisticRegressionModel {
 public:
  LogisticRegressionModel() = default;
  LogisticRegressionModel(std::vector<double> weights, double bias)
      : weights_(std::move(weights)), bias_(bias) {}

  int64_t dim() const { return static_cast<int64_t>(weights_.size()); }
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// P(y = 1 | x). `x` must have dim() elements.
  double PredictProbability(const float* x) const;
  int Predict(const float* x) const {
    return PredictProbability(x) >= 0.5 ? 1 : 0;
  }

  /// In-memory footprint of the model (the optimizer's |M|_mem input).
  int64_t MemoryBytes() const { return dim() * 8 + 64; }

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Trains logistic regression over `table` with one example pass per epoch
/// on `engine`, folding the partition gradients in partition order, so the
/// weights are bit-identical at any thread count. Feature dimensionality
/// is learned in the first epoch (zero iterations return an empty model,
/// which predicts like an all-zero one). Labels must be 0/1.
Result<LogisticRegressionModel> TrainLogisticRegression(
    df::Engine* engine, const df::Table& table,
    const FeatureExtractor& extract, const LogisticRegressionConfig& config);

/// Evaluates log-loss of a model over a table (diagnostic).
Result<double> LogisticLogLoss(df::Engine* engine, const df::Table& table,
                               const FeatureExtractor& extract,
                               const LogisticRegressionModel& model);

}  // namespace vista::ml

#endif  // VISTA_ML_LOGISTIC_REGRESSION_H_
