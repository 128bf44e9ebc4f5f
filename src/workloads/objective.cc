#include "workloads/objective.h"

#include "common/logging.h"
#include "core/model.h"
#include "data/partition.h"

namespace mllibstar {
namespace {

class BinaryObjective final : public GlmObjective {
 public:
  BinaryObjective(const Loss* loss, const Regularizer* reg,
                  bool lazy_regularization, ComputePrecision precision)
      : loss_(loss),
        reg_(reg),
        lazy_(lazy_regularization),
        f32_(precision == ComputePrecision::kF32) {}

  size_t num_classes() const override { return 0; }

  ComputeStats BatchGradient(const CsrBlock& block,
                             const std::vector<size_t>& batch,
                             const DenseVector& w,
                             DenseVector* gradient) const override {
    return f32_ ? AccumulateBatchGradientF32(block, batch, *loss_, w,
                                             gradient)
                : AccumulateBatchGradient(block, batch, *loss_, w, gradient);
  }

  ComputeStats LossGradient(const CsrBlock& block, const DenseVector& w,
                            DenseVector* gradient,
                            double* loss_sum) const override {
    return f32_ ? AccumulateLossGradientF32(block, *loss_, w, gradient,
                                            loss_sum)
                : AccumulateLossGradient(block, *loss_, w, gradient,
                                         loss_sum);
  }

  ComputeStats SgdEpoch(const CsrBlock& block, double lr, Rng* rng,
                        DenseVector* w) const override {
    return f32_ ? LocalSgdEpochF32(block, *loss_, *reg_, lr, lazy_, rng, w)
                : LocalSgdEpoch(block, *loss_, *reg_, lr, lazy_, rng, w);
  }

  ComputeStats SgdEpoch(const CsrBlock& block,
                        const std::vector<size_t>& rows, double lr,
                        Rng* rng, DenseVector* w) const override {
    return f32_
               ? LocalSgdEpochF32(block, rows, *loss_, *reg_, lr, lazy_,
                                  rng, w)
               : LocalSgdEpoch(block, rows, *loss_, *reg_, lr, lazy_, rng,
                               w);
  }

  ComputeStats OptimizerEpoch(const CsrBlock& block, double lr,
                              LocalOptimizer* optimizer, Rng* rng,
                              DenseVector* w) const override {
    // Always f64: LocalOptimizer::ApplyUpdate consumes f64 value spans.
    return LocalOptimizerEpoch(block, *loss_, *reg_, lr, optimizer, rng, w);
  }

  ComputeStats MiniBatchGd(const CsrBlock& block, double lr,
                           size_t batch_size, size_t num_batches, Rng* rng,
                           DenseVector* w) const override {
    return f32_ ? LocalMiniBatchGdF32(block, *loss_, *reg_, lr, batch_size,
                                      num_batches, rng, w)
                : LocalMiniBatchGd(block, *loss_, *reg_, lr, batch_size,
                                   num_batches, rng, w);
  }

  double MeanPointLoss(const std::vector<DataPoint>& points,
                       const DenseVector& w) const override {
    // Evaluation stays f64 regardless of compute precision so the
    // recorded loss curves expose any f32 training drift.
    return MeanLoss(points, *loss_, w);
  }

  std::string name() const override { return "binary/" + loss_->name(); }

 private:
  // MeanLoss's per-point term, over the row views.
  void RowLosses(const CsrBlock& block, const DenseVector& w, double* out,
                 size_t stride) const override {
    for (size_t i = 0; i < block.rows(); ++i) {
      const double margin =
          w.Dot(block.row_indices(i), block.row_values(i), block.row_nnz(i));
      out[i * stride] = loss_->Value(margin, block.label(i));
    }
  }

  const Loss* loss_;
  const Regularizer* reg_;
  bool lazy_;
  bool f32_;
};

class SoftmaxObjective final : public GlmObjective {
 public:
  SoftmaxObjective(size_t num_classes, const Regularizer* reg,
                   bool lazy_regularization, ComputePrecision precision)
      : num_classes_(num_classes),
        reg_(reg),
        lazy_(lazy_regularization),
        f32_(precision == ComputePrecision::kF32) {
    MLLIBSTAR_CHECK_GE(num_classes_, 2u);
  }

  size_t num_classes() const override { return num_classes_; }

  ComputeStats BatchGradient(const CsrBlock& block,
                             const std::vector<size_t>& batch,
                             const DenseVector& w,
                             DenseVector* gradient) const override {
    return f32_ ? AccumulateBatchGradientSoftmaxF32(
                      block, batch, num_classes_, Features(w), w, gradient)
                : AccumulateBatchGradientSoftmax(
                      block, batch, num_classes_, Features(w), w, gradient);
  }

  ComputeStats LossGradient(const CsrBlock& block, const DenseVector& w,
                            DenseVector* gradient,
                            double* loss_sum) const override {
    return f32_ ? AccumulateLossGradientSoftmaxF32(block, num_classes_,
                                                   Features(w), w, gradient,
                                                   loss_sum)
                : AccumulateLossGradientSoftmax(block, num_classes_,
                                                Features(w), w, gradient,
                                                loss_sum);
  }

  ComputeStats SgdEpoch(const CsrBlock& block, double lr, Rng* rng,
                        DenseVector* w) const override {
    return f32_ ? LocalSgdEpochSoftmaxF32(block, num_classes_, Features(*w),
                                          *reg_, lr, lazy_, rng, w)
                : LocalSgdEpochSoftmax(block, num_classes_, Features(*w),
                                       *reg_, lr, lazy_, rng, w);
  }

  ComputeStats SgdEpoch(const CsrBlock& block,
                        const std::vector<size_t>& rows, double lr,
                        Rng* rng, DenseVector* w) const override {
    return f32_ ? LocalSgdEpochSoftmaxF32(block, rows, num_classes_,
                                          Features(*w), *reg_, lr, lazy_,
                                          rng, w)
                : LocalSgdEpochSoftmax(block, rows, num_classes_,
                                       Features(*w), *reg_, lr, lazy_, rng,
                                       w);
  }

  ComputeStats OptimizerEpoch(const CsrBlock& block, double lr,
                              LocalOptimizer* optimizer, Rng* rng,
                              DenseVector* w) const override {
    // Always f64: LocalOptimizer::ApplyUpdate consumes f64 value spans.
    return LocalOptimizerEpochSoftmax(block, num_classes_, Features(*w),
                                      *reg_, lr, optimizer, rng, w);
  }

  ComputeStats MiniBatchGd(const CsrBlock& block, double lr,
                           size_t batch_size, size_t num_batches, Rng* rng,
                           DenseVector* w) const override {
    return f32_ ? LocalMiniBatchGdSoftmaxF32(block, num_classes_,
                                             Features(*w), *reg_, lr,
                                             batch_size, num_batches, rng,
                                             w)
                : LocalMiniBatchGdSoftmax(block, num_classes_, Features(*w),
                                          *reg_, lr, batch_size,
                                          num_batches, rng, w);
  }

  double MeanPointLoss(const std::vector<DataPoint>& points,
                       const DenseVector& w) const override {
    return MeanSoftmaxLoss(points, num_classes_, Features(w), w);
  }

  std::string name() const override {
    return "softmax" + std::to_string(num_classes_);
  }

 private:
  // MeanSoftmaxLoss's per-point term, over the row views.
  void RowLosses(const CsrBlock& block, const DenseVector& w, double* out,
                 size_t stride) const override {
    const size_t d = Features(w);
    std::vector<double> margins(num_classes_);
    for (size_t i = 0; i < block.rows(); ++i) {
      for (size_t c = 0; c < num_classes_; ++c) {
        margins[c] = w.Dot(block.row_indices(i), block.row_values(i),
                           block.row_nnz(i), c * d);
      }
      const size_t label = static_cast<size_t>(block.label(i));
      MLLIBSTAR_CHECK_LT(label, num_classes_);
      out[i * stride] = SoftmaxCrossEntropy(margins.data(), num_classes_,
                                            label);
    }
  }

  // The per-class feature count, recovered from the flattened model so
  // the objective stays stateless about the dataset.
  size_t Features(const DenseVector& w) const {
    MLLIBSTAR_CHECK_EQ(w.dim() % num_classes_, 0u);
    return w.dim() / num_classes_;
  }

  size_t num_classes_;
  const Regularizer* reg_;
  bool lazy_;
  bool f32_;
};

}  // namespace

double GlmObjective::MeanPartitionLoss(const std::vector<CsrBlock>& partitions,
                                       const DenseVector& w,
                                       std::vector<double>* row_losses) const {
  const size_t k = partitions.size();
  size_t n = 0;
  for (const CsrBlock& b : partitions) n += b.rows();
  if (n == 0) return 0.0;
  row_losses->resize(n);
  // Row r of partition p is dataset row RoundRobinRow(p, r, k): each
  // partition fills a stride-k run of slots starting at its first row's.
  for (size_t p = 0; p < k; ++p) {
    MLLIBSTAR_CHECK_EQ(partitions[p].rows(), (n + k - 1 - p) / k)
        << "partitions are not a round-robin deal";
    RowLosses(partitions[p], w, row_losses->data() + RoundRobinRow(p, 0, k),
              k);
  }
  double sum = 0.0;
  for (double loss : *row_losses) sum += loss;
  return sum / static_cast<double>(n);
}

std::unique_ptr<GlmObjective> MakeBinaryObjective(
    const Loss* loss, const Regularizer* reg, bool lazy_regularization,
    ComputePrecision precision) {
  return std::make_unique<BinaryObjective>(loss, reg, lazy_regularization,
                                           precision);
}

std::unique_ptr<GlmObjective> MakeSoftmaxObjective(
    size_t num_classes, const Regularizer* reg, bool lazy_regularization,
    ComputePrecision precision) {
  return std::make_unique<SoftmaxObjective>(num_classes, reg,
                                            lazy_regularization, precision);
}

}  // namespace mllibstar
