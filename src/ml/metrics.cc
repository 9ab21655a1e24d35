#include "ml/metrics.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace vista::ml {

double BinaryMetrics::Accuracy() const {
  const int64_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(true_positives + true_negatives) /
         static_cast<double>(n);
}

double BinaryMetrics::Precision() const {
  const int64_t denom = true_positives + false_positives;
  if (denom == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(denom);
}

double BinaryMetrics::Recall() const {
  const int64_t denom = true_positives + false_negatives;
  if (denom == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(denom);
}

double BinaryMetrics::F1() const {
  const double p = Precision();
  const double r = Recall();
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

void BinaryMetrics::Add(int predicted, int actual) {
  const bool pred_pos = predicted != 0;
  const bool act_pos = actual != 0;
  if (pred_pos && act_pos) {
    ++true_positives;
  } else if (pred_pos && !act_pos) {
    ++false_positives;
  } else if (!pred_pos && act_pos) {
    ++false_negatives;
  } else {
    ++true_negatives;
  }
}

BinaryMetrics& BinaryMetrics::operator+=(const BinaryMetrics& other) {
  true_positives += other.true_positives;
  false_positives += other.false_positives;
  true_negatives += other.true_negatives;
  false_negatives += other.false_negatives;
  return *this;
}

Result<BinaryMetrics> Evaluate(
    df::Engine* engine, const df::Table& table,
    const FeatureExtractor& extract,
    const std::function<int(const float*)>& predict) {
  VISTA_ASSIGN_OR_RETURN(
      ExamplePass<BinaryMetrics> pass,
      ForEachExample<BinaryMetrics>(
          engine, table, extract,
          [&](BinaryMetrics* m, const std::vector<float>& x, float label) {
            m->Add(predict(x.data()), label > 0.5f ? 1 : 0);
          }));
  BinaryMetrics total;
  for (const BinaryMetrics& m : pass.slots) total += m;
  return total;
}

double RocAuc(const std::vector<double>& scores,
              const std::vector<int>& actual) {
  VISTA_CHECK_EQ(scores.size(), actual.size());
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] < scores[b];
  });
  // Average ranks (1-based), with ties sharing the mean rank.
  std::vector<double> rank(scores.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           scores[order[j + 1]] == scores[order[i]]) {
      ++j;
    }
    const double mean_rank = (static_cast<double>(i) +
                              static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) rank[order[k]] = mean_rank;
    i = j + 1;
  }
  double positive_rank_sum = 0;
  int64_t positives = 0;
  for (size_t k = 0; k < actual.size(); ++k) {
    if (actual[k] != 0) {
      positive_rank_sum += rank[k];
      ++positives;
    }
  }
  const int64_t negatives = static_cast<int64_t>(actual.size()) - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double u = positive_rank_sum -
                   static_cast<double>(positives) * (positives + 1) / 2.0;
  return u / (static_cast<double>(positives) * negatives);
}

BinaryMetrics EvaluateBinary(const std::vector<int>& predicted,
                             const std::vector<int>& actual) {
  VISTA_CHECK_EQ(predicted.size(), actual.size());
  BinaryMetrics m;
  for (size_t i = 0; i < predicted.size(); ++i) {
    m.Add(predicted[i], actual[i]);
  }
  return m;
}

}  // namespace vista::ml
