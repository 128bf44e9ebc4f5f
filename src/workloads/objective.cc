#include "workloads/objective.h"

#include <numeric>

#include "common/logging.h"
#include "data/partition.h"

namespace mllibstar {
namespace {

// ---- GD kernels --------------------------------------------------------
// Every worker task the seven trainers run is one of the functions
// below, reached only through the GlmObjective methods further down.
// Each walks a CsrBlock through its row accessors. This file is built
// with -ffp-contract=off, so no compiler fuses a multiply-add in these
// loops.

ComputeStats BatchGradientImpl(const CsrBlock& block,
                               const std::vector<size_t>& batch,
                               const Loss& loss, const DenseVector& w,
                               DenseVector* gradient) {
  ComputeStats stats;
  for (size_t idx : batch) {
    const size_t n = block.row_nnz(idx);
    const double margin =
        w.Dot(block.row_indices(idx), block.row_values(idx), n);
    const double d = loss.Derivative(margin, block.label(idx));
    stats.nnz_processed += n;
    if (d != 0.0) {
      gradient->AddScaled(block.row_indices(idx), block.row_values(idx), n,
                          d);
      stats.nnz_processed += n;
    }
  }
  return stats;
}

ComputeStats LossGradientImpl(const CsrBlock& block, const Loss& loss,
                              const DenseVector& w, DenseVector* gradient,
                              double* loss_sum) {
  ComputeStats stats;
  const size_t rows = block.rows();
  for (size_t i = 0; i < rows; ++i) {
    const size_t n = block.row_nnz(i);
    const double margin =
        w.Dot(block.row_indices(i), block.row_values(i), n);
    const double y = block.label(i);
    const double d = loss.Derivative(margin, y);
    *loss_sum += loss.Value(margin, y);
    stats.nnz_processed += n;
    if (d != 0.0) {
      gradient->AddScaled(block.row_indices(i), block.row_values(i), n, d);
      stats.nnz_processed += n;
    }
  }
  return stats;
}

// One shuffled SGD pass visiting `rows` (shuffled in place).
ComputeStats SgdEpochImpl(const CsrBlock& block, std::vector<size_t> rows,
                          const Loss& loss, const Regularizer& reg,
                          double lr, bool lazy_regularization, Rng* rng,
                          DenseVector* w) {
  ComputeStats stats;
  if (rows.empty()) return stats;
  rng->Shuffle(&rows);

  const bool lazy_l2 =
      lazy_regularization && reg.kind() == RegularizerKind::kL2;

  if (lazy_l2) {
    ScaledVector scaled(std::move(*w));
    const double shrink = 1.0 - lr * reg.lambda();
    MLLIBSTAR_CHECK_GT(shrink, 0.0);
    for (size_t idx : rows) {
      const size_t n = block.row_nnz(idx);
      const double margin =
          scaled.Dot(block.row_indices(idx), block.row_values(idx), n);
      const double d = loss.Derivative(margin, block.label(idx));
      stats.nnz_processed += n;
      scaled.Shrink(shrink);
      if (d != 0.0) {
        scaled.AddScaled(block.row_indices(idx), block.row_values(idx), n,
                         -lr * d);
        stats.nnz_processed += n;
      }
      ++stats.model_updates;
    }
    *w = scaled.ToDense();
    return stats;
  }

  for (size_t idx : rows) {
    const size_t n = block.row_nnz(idx);
    const double margin =
        w->Dot(block.row_indices(idx), block.row_values(idx), n);
    const double d = loss.Derivative(margin, block.label(idx));
    stats.nnz_processed += n;
    if (reg.kind() != RegularizerKind::kNone) {
      reg.ApplyGradientStep(w, lr);
      // The eager regularizer step touches every coordinate.
      stats.nnz_processed += w->dim();
    }
    if (d != 0.0) {
      w->AddScaled(block.row_indices(idx), block.row_values(idx), n,
                   -lr * d);
      stats.nnz_processed += n;
    }
    ++stats.model_updates;
  }
  return stats;
}

ComputeStats MiniBatchGdImpl(const CsrBlock& block, const Loss& loss,
                             const Regularizer& reg, double lr,
                             size_t batch_size, size_t num_batches,
                             Rng* rng, DenseVector* w) {
  ComputeStats stats;
  if (block.rows() == 0 || batch_size == 0) return stats;

  TouchedBuffer gradient(w->dim());
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<size_t> batch =
        SampleBatch(block.rows(), batch_size, rng);
    gradient.TouchRows(block, batch);
    const ComputeStats batch_stats =
        BatchGradientImpl(block, batch, loss, *w, gradient.mutable_vector());
    stats += batch_stats;
    const double inv_batch = 1.0 / static_cast<double>(batch.size());
    if (reg.kind() != RegularizerKind::kNone) {
      // A nonzero regularizer makes the update dense -- the expense the
      // paper calls out for Petuum-style batch GD (SIII-B1).
      reg.ApplyGradientStep(w, lr);
      stats.nnz_processed += w->dim();
    }
    gradient.FlushScaled(-lr * inv_batch, w);
    // Without regularization the batch gradient has at most batch-nnz
    // nonzeros and the flush above applies it sparsely; charge that.
    stats.nnz_processed += reg.kind() != RegularizerKind::kNone
                               ? w->dim()
                               : batch_stats.nnz_processed / 2;
    ++stats.model_updates;
  }
  return stats;
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

// ---- The objective -----------------------------------------------------

class BinaryObjective final : public GlmObjective {
 public:
  BinaryObjective(const Loss* loss, const Regularizer* reg,
                  bool lazy_regularization)
      : loss_(loss), reg_(reg), lazy_(lazy_regularization) {}

  ComputeStats BatchGradient(const CsrBlock& block,
                             const std::vector<size_t>& batch,
                             const DenseVector& w,
                             DenseVector* gradient) const override {
    return BatchGradientImpl(block, batch, *loss_, w, gradient);
  }

  ComputeStats LossGradient(const CsrBlock& block, const DenseVector& w,
                            DenseVector* gradient,
                            double* loss_sum) const override {
    return LossGradientImpl(block, *loss_, w, gradient, loss_sum);
  }

  ComputeStats SgdEpoch(const CsrBlock& block, double lr, Rng* rng,
                        DenseVector* w) const override {
    return SgdEpochImpl(block, Iota(block.rows()), *loss_, *reg_, lr,
                        lazy_, rng, w);
  }

  ComputeStats SgdEpoch(const CsrBlock& block,
                        const std::vector<size_t>& rows, double lr,
                        Rng* rng, DenseVector* w) const override {
    return SgdEpochImpl(block, rows, *loss_, *reg_, lr, lazy_, rng, w);
  }

  ComputeStats MiniBatchGd(const CsrBlock& block, double lr,
                           size_t batch_size, size_t num_batches, Rng* rng,
                           DenseVector* w) const override {
    return MiniBatchGdImpl(block, *loss_, *reg_, lr, batch_size,
                           num_batches, rng, w);
  }

 private:
  // MeanLoss's per-point term (core/model).
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

std::unique_ptr<GlmObjective> MakeBinaryObjective(const Loss* loss,
                                                  const Regularizer* reg,
                                                  bool lazy_regularization) {
  return std::make_unique<BinaryObjective>(loss, reg, lazy_regularization);
}

}  // namespace mllibstar
