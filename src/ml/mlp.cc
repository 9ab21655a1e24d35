#include "ml/mlp.h"

#include <cmath>

namespace vista::ml {
namespace {

double Sigmoid(double z) {
  if (z >= 0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

double MlpModel::Forward(
    const float* x, std::vector<std::vector<double>>* activations) const {
  std::vector<double> current(input_dim_);
  for (int64_t i = 0; i < input_dim_; ++i) current[i] = x[i];
  if (activations != nullptr) {
    activations->clear();
    activations->push_back(current);
  }
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    std::vector<double> next(layer.out);
    for (int64_t r = 0; r < layer.out; ++r) {
      double acc = layer.b[r];
      const double* wr = layer.w.data() + r * layer.in;
      for (int64_t c = 0; c < layer.in; ++c) acc += wr[c] * current[c];
      // Hidden layers are ReLU; the final layer stays linear (sigmoid is
      // applied to the scalar output below).
      next[r] = li + 1 < layers_.size() ? std::max(0.0, acc) : acc;
    }
    current = std::move(next);
    if (activations != nullptr) activations->push_back(current);
  }
  return Sigmoid(current[0]);
}

double MlpModel::PredictProbability(const float* x) const {
  return Forward(x, nullptr);
}

int64_t MlpModel::MemoryBytes() const {
  int64_t bytes = 64;
  for (const Layer& layer : layers_) {
    bytes += static_cast<int64_t>(layer.w.size() + layer.b.size()) * 8;
  }
  return bytes;
}

Result<MlpModel> TrainMlp(df::Engine* engine, const df::Table& table,
                          const FeatureExtractor& extract,
                          const MlpConfig& config) {
  if (table.num_records() == 0) {
    return Status::InvalidArgument("cannot train on an empty table");
  }
  // The first layer cannot be initialized before the input width is known,
  // so one extract-only pass learns it.
  struct Nothing {};
  VISTA_ASSIGN_OR_RETURN(
      ExamplePass<Nothing> shape,
      ForEachExample<Nothing>(
          engine, table, extract,
          [](Nothing*, const std::vector<float>&, float) {}));
  const int64_t dim = shape.dim;
  if (dim <= 0) {
    return Status::InvalidArgument("feature extractor produced no features");
  }

  MlpModel model;
  model.input_dim_ = dim;
  Rng rng(config.seed);
  int64_t in_dim = dim;
  for (int64_t hidden : config.hidden_sizes) {
    MlpModel::Layer layer;
    layer.in = in_dim;
    layer.out = hidden;
    layer.w.resize(in_dim * hidden);
    layer.b.assign(hidden, 0.0);
    const double stddev = std::sqrt(2.0 / static_cast<double>(in_dim));
    for (double& v : layer.w) v = rng.NextGaussian() * stddev;
    model.layers_.push_back(std::move(layer));
    in_dim = hidden;
  }
  // Output layer: single logit.
  MlpModel::Layer out_layer;
  out_layer.in = in_dim;
  out_layer.out = 1;
  out_layer.w.resize(in_dim);
  out_layer.b.assign(1, 0.0);
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (double& v : out_layer.w) v = rng.NextGaussian() * stddev;
  model.layers_.push_back(std::move(out_layer));

  // Per-layer weight and bias gradients, shaped like the model's layers.
  struct Gradient {
    std::vector<std::vector<double>> w, b;
  };
  const auto zeros = [&model] {
    Gradient g;
    for (const MlpModel::Layer& layer : model.layers_) {
      g.w.emplace_back(layer.w.size(), 0.0);
      g.b.emplace_back(layer.b.size(), 0.0);
    }
    return g;
  };
  const double scale =
      config.learning_rate / static_cast<double>(table.num_records());
  const size_t num_layers = model.layers_.size();

  for (int iter = 0; iter < config.iterations; ++iter) {
    VISTA_ASSIGN_OR_RETURN(
        ExamplePass<Gradient> pass,
        ForEachExample<Gradient>(
            engine, table, extract,
            [&](Gradient* g, const std::vector<float>& x, float label) {
              if (g->w.empty()) *g = zeros();
              std::vector<std::vector<double>> acts;
              const double p = model.Forward(x.data(), &acts);
              // dL/dlogit for sigmoid + cross-entropy.
              std::vector<double> delta{p - static_cast<double>(label)};
              for (int li = static_cast<int>(num_layers) - 1; li >= 0; --li) {
                const MlpModel::Layer& layer = model.layers_[li];
                const std::vector<double>& input = acts[li];
                std::vector<double> next_delta(layer.in, 0.0);
                for (int64_t r_out = 0; r_out < layer.out; ++r_out) {
                  const double d = delta[r_out];
                  if (d == 0.0) continue;
                  double* gw = g->w[li].data() + r_out * layer.in;
                  const double* wr = layer.w.data() + r_out * layer.in;
                  for (int64_t c = 0; c < layer.in; ++c) {
                    gw[c] += d * input[c];
                    next_delta[c] += d * wr[c];
                  }
                  g->b[li][r_out] += d;
                }
                if (li > 0) {
                  // Gate by the ReLU derivative of the previous activation.
                  for (int64_t c = 0; c < layer.in; ++c) {
                    if (acts[li][c] <= 0.0) next_delta[c] = 0.0;
                  }
                }
                delta = std::move(next_delta);
              }
            }));

    // Fold the partition gradients in partition order.
    Gradient grad = zeros();
    for (const Gradient& g : pass.slots) {
      if (g.w.empty()) continue;  // Empty partition.
      for (size_t li = 0; li < num_layers; ++li) {
        for (size_t i = 0; i < g.w[li].size(); ++i) grad.w[li][i] += g.w[li][i];
        for (size_t i = 0; i < g.b[li].size(); ++i) grad.b[li][i] += g.b[li][i];
      }
    }
    for (size_t li = 0; li < num_layers; ++li) {
      MlpModel::Layer& layer = model.layers_[li];
      for (size_t i = 0; i < layer.w.size(); ++i) {
        layer.w[i] -= scale * grad.w[li][i];
      }
      for (size_t i = 0; i < layer.b.size(); ++i) {
        layer.b[i] -= scale * grad.b[li][i];
      }
    }
  }
  return model;
}

}  // namespace vista::ml
