#include "core/metrics.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace mllibstar {

ConfusionMatrix ComputeConfusion(const CsrBlock& rows, const DenseVector& w,
                                 double threshold) {
  ConfusionMatrix cm;
  ForEachMargin(rows, w, [&](size_t i, double margin) {
    const bool predicted_positive = margin >= threshold;
    const bool actually_positive = rows.label(i) > 0;
    if (predicted_positive && actually_positive) {
      ++cm.true_positives;
    } else if (predicted_positive) {
      ++cm.false_positives;
    } else if (actually_positive) {
      ++cm.false_negatives;
    } else {
      ++cm.true_negatives;
    }
  });
  return cm;
}

double RocAuc(const std::vector<double>& scores,
              const std::vector<double>& labels) {
  // Rank-sum (Mann-Whitney) formulation with midrank tie handling.
  const size_t n = scores.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });

  double positive_rank_sum = 0.0;
  uint64_t positives = 0;
  uint64_t negatives = 0;
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    // Midrank for the tie group [i, j), 1-based ranks.
    const double midrank = 0.5 * static_cast<double>(i + 1 + j);
    for (size_t t = i; t < j; ++t) {
      if (labels[order[t]] > 0) {
        positive_rank_sum += midrank;
        ++positives;
      } else {
        ++negatives;
      }
    }
    i = j;
  }
  if (positives == 0 || negatives == 0) return 0.5;
  const double u = positive_rank_sum -
                   static_cast<double>(positives) * (positives + 1) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

ClassificationMetrics EvaluateClassifier(const CsrBlock& rows,
                                         const DenseVector& w) {
  ClassificationMetrics metrics;
  if (rows.rows() == 0) return metrics;

  metrics.confusion = ComputeConfusion(rows, w);
  const ConfusionMatrix& cm = metrics.confusion;
  metrics.accuracy =
      static_cast<double>(cm.true_positives + cm.true_negatives) /
      static_cast<double>(cm.total());
  if (cm.true_positives + cm.false_positives > 0) {
    metrics.precision =
        static_cast<double>(cm.true_positives) /
        static_cast<double>(cm.true_positives + cm.false_positives);
  }
  if (cm.true_positives + cm.false_negatives > 0) {
    metrics.recall =
        static_cast<double>(cm.true_positives) /
        static_cast<double>(cm.true_positives + cm.false_negatives);
  }
  if (metrics.precision + metrics.recall > 0) {
    metrics.f1 = 2.0 * metrics.precision * metrics.recall /
                 (metrics.precision + metrics.recall);
  }

  std::vector<double> scores(rows.rows());
  ForEachMargin(rows, w, [&](size_t i, double margin) { scores[i] = margin; });
  metrics.auc = RocAuc(
      scores, std::vector<double>(rows.labels.begin(), rows.labels.end()));
  return metrics;
}

double MeanSquaredError(const CsrBlock& rows, const DenseVector& w) {
  if (rows.rows() == 0) return 0.0;
  double sum = 0.0;
  ForEachMargin(rows, w, [&](size_t i, double margin) {
    const double d = margin - rows.label(i);
    sum += d * d;
  });
  return sum / static_cast<double>(rows.rows());
}

std::string MetricsToString(const ClassificationMetrics& metrics) {
  std::ostringstream os;
  os.precision(4);
  os << "acc=" << metrics.accuracy << " p=" << metrics.precision
     << " r=" << metrics.recall << " f1=" << metrics.f1
     << " auc=" << metrics.auc;
  return os.str();
}

}  // namespace mllibstar
