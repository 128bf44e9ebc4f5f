#include "core/metrics.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace mllibstar {

ConfusionMatrix ComputeConfusion(const std::vector<DataPoint>& points,
                                 const DenseVector& w, double threshold) {
  ConfusionMatrix cm;
  for (const DataPoint& p : points) {
    const bool predicted_positive = w.Dot(p.features) >= threshold;
    const bool actually_positive = p.label > 0;
    if (predicted_positive && actually_positive) {
      ++cm.true_positives;
    } else if (predicted_positive) {
      ++cm.false_positives;
    } else if (actually_positive) {
      ++cm.false_negatives;
    } else {
      ++cm.true_negatives;
    }
  }
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

ClassificationMetrics EvaluateClassifier(
    const std::vector<DataPoint>& points, const DenseVector& w) {
  ClassificationMetrics metrics;
  if (points.empty()) return metrics;

  metrics.confusion = ComputeConfusion(points, w);
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

  std::vector<double> scores;
  std::vector<double> labels;
  scores.reserve(points.size());
  labels.reserve(points.size());
  for (const DataPoint& p : points) {
    scores.push_back(w.Dot(p.features));
    labels.push_back(p.label);
  }
  metrics.auc = RocAuc(scores, labels);
  return metrics;
}

double MeanSquaredError(const std::vector<DataPoint>& points,
                        const DenseVector& w) {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  for (const DataPoint& p : points) {
    const double d = w.Dot(p.features) - p.label;
    sum += d * d;
  }
  return sum / static_cast<double>(points.size());
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
