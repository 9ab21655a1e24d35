#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "dataflow/engine.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/scaler.h"

namespace vista::ml {
namespace {

// Linearly separable binary data: label = 1 iff w.x > 0.
std::vector<df::Record> LinearData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    const float x0 = static_cast<float>(rng.NextGaussian());
    const float x1 = static_cast<float>(rng.NextGaussian());
    const float label = (2.0f * x0 - x1 > 0) ? 1.0f : 0.0f;
    r.struct_features = {label, x0, x1};
    records.push_back(std::move(r));
  }
  return records;
}

// XOR-style data that no linear model can fit.
std::vector<df::Record> XorData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<df::Record> records;
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    const float x0 = rng.NextBool(0.5) ? 1.0f : -1.0f;
    const float x1 = rng.NextBool(0.5) ? 1.0f : -1.0f;
    const float noise0 = static_cast<float>(rng.NextGaussian()) * 0.1f;
    const float noise1 = static_cast<float>(rng.NextGaussian()) * 0.1f;
    const float label = (x0 * x1 > 0) ? 1.0f : 0.0f;
    r.struct_features = {label, x0 + noise0, x1 + noise1};
    records.push_back(std::move(r));
  }
  return records;
}

Status Extract(const df::Record& r, std::vector<float>* x, float* label) {
  *label = r.struct_features[0];
  x->assign(r.struct_features.begin() + 1, r.struct_features.end());
  return Status::OK();
}

double TrainAccuracy(df::Engine* engine, const df::Table& table,
                     const std::function<int(const float*)>& predict) {
  auto metrics = Evaluate(engine, table, Extract, predict);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return metrics.ok() ? metrics->Accuracy() : 0.0;
}

TEST(MetricsTest, ConfusionCounts) {
  BinaryMetrics m = EvaluateBinary({1, 1, 0, 0, 1}, {1, 0, 0, 1, 1});
  EXPECT_EQ(m.true_positives, 2);
  EXPECT_EQ(m.false_positives, 1);
  EXPECT_EQ(m.true_negatives, 1);
  EXPECT_EQ(m.false_negatives, 1);
  EXPECT_NEAR(m.Accuracy(), 0.6, 1e-9);
  EXPECT_NEAR(m.Precision(), 2.0 / 3, 1e-9);
  EXPECT_NEAR(m.Recall(), 2.0 / 3, 1e-9);
  EXPECT_NEAR(m.F1(), 2.0 / 3, 1e-9);
}

TEST(MetricsTest, DegenerateCasesAreZero) {
  BinaryMetrics m;
  EXPECT_EQ(m.Accuracy(), 0.0);
  EXPECT_EQ(m.F1(), 0.0);
  m.Add(0, 0);
  EXPECT_EQ(m.Precision(), 0.0);
  EXPECT_EQ(m.Recall(), 0.0);
  EXPECT_EQ(m.Accuracy(), 1.0);
}


TEST(MetricsTest, RocAucPerfectAndRandom) {
  // Perfect ranking.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
  // Perfectly wrong ranking.
  EXPECT_DOUBLE_EQ(RocAuc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
  // All-tied scores: AUC 0.5.
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
  // Degenerate single-class input.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.9}, {1, 1}), 0.5);
}

TEST(MetricsTest, RocAucHandComputed) {
  // scores 0.1(neg) 0.4(pos) 0.35(neg) 0.8(pos):
  // pairs: (0.4>0.1)=1, (0.4>0.35)=1, (0.8>0.1)=1, (0.8>0.35)=1 => AUC 1.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.4, 0.35, 0.8}, {0, 1, 0, 1}), 1.0);
  // Swap one: 0.3(pos) < 0.35(neg): 3 of 4 pairs correct => 0.75.
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.3, 0.35, 0.8}, {0, 1, 0, 1}), 0.75);
}

TEST(MetricsTest, RocAucTracksModelQuality) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1500, 21), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig config;
  config.iterations = 40;
  config.learning_rate = 1.0;
  config.reg_lambda = 0.0;
  auto model = TrainLogisticRegression(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<float> x;
  float label = 0;
  const std::vector<df::Record> rows = engine.Collect(*table).value();
  for (const df::Record& r : rows) {
    ASSERT_TRUE(Extract(r, &x, &label).ok());
    scores.push_back(model->PredictProbability(x.data()));
    labels.push_back(label > 0.5f ? 1 : 0);
  }
  EXPECT_GT(RocAuc(scores, labels), 0.97);
}

TEST(LogisticRegressionTest, LearnsLinearlySeparableData) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(2000, 1), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig config;
  config.iterations = 60;
  config.learning_rate = 1.0;
  config.reg_lambda = 0.0;
  auto model = TrainLogisticRegression(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.95);
}

TEST(LogisticRegressionTest, ElasticNetShrinksWeights) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1000, 2), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig no_reg;
  no_reg.iterations = 40;
  no_reg.reg_lambda = 0.0;
  LogisticRegressionConfig strong_reg = no_reg;
  strong_reg.reg_lambda = 0.5;
  auto m1 = TrainLogisticRegression(&engine, *table, Extract, no_reg);
  auto m2 = TrainLogisticRegression(&engine, *table, Extract, strong_reg);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  double norm1 = 0, norm2 = 0;
  for (double w : m1->weights()) norm1 += w * w;
  for (double w : m2->weights()) norm2 += w * w;
  EXPECT_LT(norm2, norm1);
}

TEST(LogisticRegressionTest, RejectsEmptyTable) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable({}, 2);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(
      TrainLogisticRegression(&engine, *table, Extract, {}).ok());
}

TEST(LogisticRegressionTest, LogLossDecreasesWithTraining) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1000, 3), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig short_run;
  short_run.iterations = 1;
  LogisticRegressionConfig long_run;
  long_run.iterations = 50;
  auto m1 = TrainLogisticRegression(&engine, *table, Extract, short_run);
  auto m2 = TrainLogisticRegression(&engine, *table, Extract, long_run);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  auto loss1 = LogisticLogLoss(&engine, *table, Extract, *m1);
  auto loss2 = LogisticLogLoss(&engine, *table, Extract, *m2);
  ASSERT_TRUE(loss1.ok());
  ASSERT_TRUE(loss2.ok());
  EXPECT_LT(*loss2, *loss1);
}

TEST(MlpTest, LearnsXor) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(XorData(800, 3), 4);
  ASSERT_TRUE(table.ok());
  MlpConfig config;
  config.hidden_sizes = {16};
  config.iterations = 400;
  config.learning_rate = 0.8;
  auto model = TrainMlp(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.9);
}

TEST(MlpTest, LinearModelCannotFitXorButMlpCan) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(XorData(800, 4), 4);
  ASSERT_TRUE(table.ok());
  LogisticRegressionConfig lr;
  lr.iterations = 100;
  auto linear = TrainLogisticRegression(&engine, *table, Extract, lr);
  ASSERT_TRUE(linear.ok());
  // The best any linear boundary can do on XOR is 3 of 4 quadrants (75%).
  const double linear_acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return linear->Predict(x); });
  EXPECT_LT(linear_acc, 0.8);
}

TEST(MlpTest, MemoryBytesGrowsWithWidth) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(100, 5), 2);
  MlpConfig narrow;
  narrow.hidden_sizes = {4};
  narrow.iterations = 1;
  MlpConfig wide;
  wide.hidden_sizes = {64, 64};
  wide.iterations = 1;
  auto m1 = TrainMlp(&engine, *table, Extract, narrow);
  auto m2 = TrainMlp(&engine, *table, Extract, wide);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_GT(m2->MemoryBytes(), m1->MemoryBytes());
}

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(1000, 6), 4);
  ASSERT_TRUE(table.ok());
  DecisionTreeConfig config;
  config.max_depth = 6;
  auto model = TrainDecisionTree(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->num_nodes(), 1);
  EXPECT_LE(model->depth(), 6);
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.85);
}

TEST(DecisionTreeTest, LearnsXorUnlikeLinearModel) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(XorData(1000, 7), 4);
  ASSERT_TRUE(table.ok());
  DecisionTreeConfig config;
  config.max_depth = 4;
  auto model = TrainDecisionTree(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  const double acc = TrainAccuracy(
      &engine, *table, [&](const float* x) { return model->Predict(x); });
  EXPECT_GT(acc, 0.9);
}

TEST(DecisionTreeTest, PureLeafStopsSplitting) {
  df::Engine engine(df::EngineConfig{});
  std::vector<df::Record> records;
  for (int i = 0; i < 100; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features = {1.0f, static_cast<float>(i)};
    records.push_back(std::move(r));
  }
  auto table = engine.MakeTable(records, 2);
  auto model = TrainDecisionTree(&engine, *table, Extract, {});
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_nodes(), 1);  // All labels identical: one leaf.
}

TEST(DecisionTreeTest, RespectsMinSamplesLeaf) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(30, 8), 2);
  DecisionTreeConfig config;
  config.min_samples_leaf = 20;  // Cannot split 30 rows into 20+20.
  auto model = TrainDecisionTree(&engine, *table, Extract, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_nodes(), 1);
}

TEST(ExamplePassTest, RejectsInconsistentDimensionality) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(200, 9), 4);
  ASSERT_TRUE(table.ok());
  const FeatureExtractor ragged = [](const df::Record& r,
                                     std::vector<float>* x, float* label) {
    VISTA_RETURN_IF_ERROR(Extract(r, x, label));
    if (r.id == 123) x->push_back(0.0f);
    return Status::OK();
  };
  EXPECT_TRUE(TrainLogisticRegression(&engine, *table, ragged, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      Evaluate(&engine, *table, ragged, [](const float*) { return 0; })
          .status()
          .IsInvalidArgument());
}

TEST(EvaluateTest, CountsEveryExampleOfTheTable) {
  df::Engine engine(df::EngineConfig{});
  auto table = engine.MakeTable(LinearData(500, 10), 4);
  ASSERT_TRUE(table.ok());
  // Predicting the label itself: every positive is a TP, every negative a
  // TN.
  auto metrics = Evaluate(&engine, *table, Extract, [](const float* x) {
    return 2.0f * x[0] - x[1] > 0 ? 1 : 0;
  });
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->total(), 500);
  EXPECT_EQ(metrics->false_positives + metrics->false_negatives, 0);
  EXPECT_GT(metrics->true_positives, 0);
  EXPECT_GT(metrics->true_negatives, 0);
}

// A wide table: with 300 features, a floating-point reduction that merges
// partitions in task-completion order changes the last bits of most sums.
std::vector<df::Record> WideData(int n, int features, uint64_t seed) {
  Rng rng(seed);
  std::vector<df::Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    df::Record r;
    r.id = i;
    r.struct_features.assign(features + 1, 0.0f);
    double score = 0;
    for (int f = 1; f <= features; ++f) {
      r.struct_features[f] = static_cast<float>(rng.NextGaussian());
      if (f <= 10) score += r.struct_features[f];
    }
    r.struct_features[0] = score + rng.NextGaussian() > 0 ? 1.0f : 0.0f;
    records.push_back(std::move(r));
  }
  return records;
}

/// Everything the downstream models learn from one table.
struct Learned {
  std::vector<double> lr_weights;
  double lr_bias = 0;
  double lr_log_loss = 0;
  /// MLP PredictProbability on fixed probe rows.
  std::vector<double> mlp_probes;
  std::vector<double> scaler_mean;
  std::vector<double> scaler_stddev;
  int64_t retries = 0;
};

Learned LearnAll(const df::EngineConfig& config,
                 const std::vector<df::Record>& records) {
  df::Engine engine(config);
  Learned out;
  auto table = engine.MakeTable(records, 8);
  EXPECT_TRUE(table.ok());
  LogisticRegressionConfig lr;
  lr.iterations = 10;
  auto lr_model = TrainLogisticRegression(&engine, *table, Extract, lr);
  EXPECT_TRUE(lr_model.ok()) << lr_model.status();
  if (!lr_model.ok()) return out;
  out.lr_weights = lr_model->weights();
  out.lr_bias = lr_model->bias();
  out.lr_log_loss =
      LogisticLogLoss(&engine, *table, Extract, *lr_model).ValueOr(-1);

  MlpConfig mlp;
  mlp.hidden_sizes = {16};
  mlp.iterations = 3;
  auto mlp_model = TrainMlp(&engine, *table, Extract, mlp);
  EXPECT_TRUE(mlp_model.ok()) << mlp_model.status();
  if (!mlp_model.ok()) return out;
  std::vector<float> x;
  float label = 0;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(Extract(records[i], &x, &label).ok());
    out.mlp_probes.push_back(mlp_model->PredictProbability(x.data()));
  }

  auto scaler = StandardScaler::Fit(&engine, *table, Extract);
  EXPECT_TRUE(scaler.ok()) << scaler.status();
  if (!scaler.ok()) return out;
  out.scaler_mean = scaler->mean();
  out.scaler_stddev = scaler->stddev();
  out.retries = engine.stats().recovery.retries;
  return out;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitEqual(const Learned& a, const Learned& b) {
  EXPECT_TRUE(BitEqual(a.lr_weights, b.lr_weights));
  EXPECT_TRUE(BitEqual(a.lr_bias, b.lr_bias));
  EXPECT_TRUE(BitEqual(a.lr_log_loss, b.lr_log_loss));
  EXPECT_TRUE(BitEqual(a.mlp_probes, b.mlp_probes));
  EXPECT_TRUE(BitEqual(a.scaler_mean, b.scaler_mean));
  EXPECT_TRUE(BitEqual(a.scaler_stddev, b.scaler_stddev));
}

// Every reduction folds partitions in partition order, so trained models
// do not depend on thread count, task-completion order or retried tasks.
TEST(DeterminismTest, ModelsAreBitIdenticalAcrossThreadsAndRetries) {
  const std::vector<df::Record> records = WideData(4000, 300, 31);
  df::EngineConfig serial;
  serial.cpus_per_worker = 1;
  const Learned reference = LearnAll(serial, records);
  ASSERT_EQ(reference.lr_weights.size(), 300u);
  ASSERT_GT(reference.lr_log_loss, 0.0);

  df::EngineConfig parallel;
  parallel.cpus_per_worker = 4;
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE("parallel run " + std::to_string(run));
    ExpectBitEqual(LearnAll(parallel, records), reference);
  }

  df::EngineConfig faulted = parallel;
  faulted.faults.seed = 7;
  faulted.faults.map_task_failure_rate = 0.2;
  faulted.retry.max_attempts = 8;
  faulted.retry.base_backoff_ms = 0.0;
  const Learned recovered = LearnAll(faulted, records);
  EXPECT_GT(recovered.retries, 0);
  ExpectBitEqual(recovered, reference);
}

}  // namespace
}  // namespace vista::ml
