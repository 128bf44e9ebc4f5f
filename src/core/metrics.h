#ifndef MLLIBSTAR_CORE_METRICS_H_
#define MLLIBSTAR_CORE_METRICS_H_

#include <string>
#include <vector>

#include "core/csr_block.h"
#include "core/model.h"
#include "core/vector.h"

namespace mllibstar {

/// Binary-classification confusion counts at a fixed threshold.
struct ConfusionMatrix {
  uint64_t true_positives = 0;
  uint64_t false_positives = 0;
  uint64_t true_negatives = 0;
  uint64_t false_negatives = 0;

  uint64_t total() const {
    return true_positives + false_positives + true_negatives +
           false_negatives;
  }
};

/// Scalar summary of a binary classifier's quality on one dataset.
struct ClassificationMetrics {
  double accuracy = 0.0;
  double precision = 0.0;  ///< TP / (TP + FP); 0 when no positives predicted
  double recall = 0.0;     ///< TP / (TP + FN); 0 when no positive labels
  double f1 = 0.0;         ///< harmonic mean of precision and recall
  double auc = 0.0;        ///< area under the ROC curve (margin ranking)
  ConfusionMatrix confusion;
};

/// Counts the confusion matrix of sign(w·x) against ±1 labels,
/// classifying margin ≥ `threshold` as positive.
ConfusionMatrix ComputeConfusion(const CsrBlock& rows, const DenseVector& w,
                                 double threshold = 0.0);

/// Precision/recall/F1/accuracy at threshold 0 plus ROC AUC computed
/// by margin ranking (ties share credit). Returns zeros on empty data.
ClassificationMetrics EvaluateClassifier(const CsrBlock& rows,
                                         const DenseVector& w);

/// Area under the ROC curve for raw (score, label∈{-1,+1}) pairs.
/// Returns 0.5 when either class is absent.
double RocAuc(const std::vector<double>& scores,
              const std::vector<double>& labels);

/// Mean squared error of margins against real-valued labels.
double MeanSquaredError(const CsrBlock& rows, const DenseVector& w);

/// Human-readable one-line rendering ("acc=0.93 p=0.91 r=0.95 ...").
std::string MetricsToString(const ClassificationMetrics& metrics);

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_METRICS_H_
