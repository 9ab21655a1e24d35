#include "ml/logistic_regression.h"

#include <cmath>

namespace vista::ml {
namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

double Sign(double v) { return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0); }

/// One partition's share of the full-batch log-loss gradient.
struct Gradient {
  std::vector<double> w;
  double bias = 0.0;
};

}  // namespace

double LogisticRegressionModel::PredictProbability(const float* x) const {
  double z = bias_;
  for (int64_t i = 0; i < dim(); ++i) z += weights_[i] * x[i];
  return Sigmoid(z);
}

Result<LogisticRegressionModel> TrainLogisticRegression(
    df::Engine* engine, const df::Table& table,
    const FeatureExtractor& extract,
    const LogisticRegressionConfig& config) {
  if (table.num_records() == 0) {
    return Status::InvalidArgument("cannot train on an empty table");
  }
  // The first epoch runs before the dimensionality is known. Its weights
  // are all zero, so the still-empty vector contributes nothing to z.
  std::vector<double> weights;
  int64_t dim = -1;
  double bias = 0.0;
  const double scale = 1.0 / static_cast<double>(table.num_records());
  const double l1 = config.reg_lambda * config.elastic_net_alpha;
  const double l2 = config.reg_lambda * (1.0 - config.elastic_net_alpha);

  for (int iter = 0; iter < config.iterations; ++iter) {
    VISTA_ASSIGN_OR_RETURN(
        ExamplePass<Gradient> pass,
        ForEachExample<Gradient>(
            engine, table, extract,
            [&](Gradient* g, const std::vector<float>& x, float label) {
              if (g->w.empty()) g->w.assign(x.size(), 0.0);
              double z = bias;
              for (size_t i = 0; i < weights.size(); ++i) {
                z += weights[i] * x[i];
              }
              const double err = Sigmoid(z) - static_cast<double>(label);
              for (size_t i = 0; i < x.size(); ++i) g->w[i] += err * x[i];
              g->bias += err;
            }));
    if (pass.dim <= 0) {
      return Status::InvalidArgument("feature extractor produced no features");
    }
    VISTA_RETURN_IF_ERROR(internal::MatchDim(pass.dim, &dim));
    weights.resize(dim, 0.0);
    // Fold the partition gradients in partition order.
    std::vector<double> grad(dim, 0.0);
    double grad_bias = 0.0;
    for (const Gradient& g : pass.slots) {
      for (size_t i = 0; i < g.w.size(); ++i) grad[i] += g.w[i];
      grad_bias += g.bias;
    }
    for (int64_t i = 0; i < dim; ++i) {
      const double g =
          grad[i] * scale + l1 * Sign(weights[i]) + l2 * weights[i];
      weights[i] -= config.learning_rate * g;
    }
    bias -= config.learning_rate * grad_bias * scale;
  }
  return LogisticRegressionModel(std::move(weights), bias);
}

Result<double> LogisticLogLoss(df::Engine* engine, const df::Table& table,
                               const FeatureExtractor& extract,
                               const LogisticRegressionModel& model) {
  struct Loss {
    double sum = 0.0;
    int64_t count = 0;
  };
  VISTA_ASSIGN_OR_RETURN(
      ExamplePass<Loss> pass,
      ForEachExample<Loss>(
          engine, table, extract,
          [&](Loss* loss, const std::vector<float>& x, float label) {
            const double p = model.PredictProbability(x.data());
            const double eps = 1e-12;
            loss->sum -=
                label > 0.5 ? std::log(p + eps) : std::log(1 - p + eps);
            ++loss->count;
          }));
  Loss total;
  for (const Loss& loss : pass.slots) {
    total.sum += loss.sum;
    total.count += loss.count;
  }
  if (total.count == 0) return Status::InvalidArgument("empty table");
  return total.sum / static_cast<double>(total.count);
}

}  // namespace vista::ml
