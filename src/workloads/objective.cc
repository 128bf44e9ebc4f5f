#include "workloads/objective.h"

#include <numeric>

#include "common/logging.h"

namespace mllibstar {
namespace {

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

}  // namespace

GlmObjective::GlmObjective(LossKind loss, Regularizer regularizer,
                           bool lazy_regularization)
    : loss_(loss),
      reg_(regularizer),
      lazy_(lazy_regularization) {}

// ---- GD kernels --------------------------------------------------------
// Every worker task the seven trainers run is one of the methods below.
// Each walks a CsrBlock through its row accessors. The two that only
// read w take their margins from the block kernel (ForEachMargin) and
// then apply the loss and the axpy row by row, in the order a per-row
// loop would; the SGD pass, whose every row sees the previous row's
// update, keeps its per-row dot.

ComputeStats GlmObjective::BatchGradient(const CsrBlock& block,
                                         const std::vector<size_t>& batch,
                                         const DenseVector& w,
                                         DenseVector* gradient) const {
  MLLIBSTAR_CHECK(gradient != &w) << "BatchGradient: gradient aliases w";
  ComputeStats stats;
  ForEachMargin(block, batch, w, [&](size_t idx, double margin) {
    const size_t n = block.row_nnz(idx);
    const double d = loss_.Derivative(margin, block.label(idx));
    stats.nnz_processed += n;
    if (d != 0.0) {
      gradient->AddScaled(block.row_indices(idx), block.row_values(idx), n,
                          d);
      stats.nnz_processed += n;
    }
  });
  return stats;
}

ComputeStats GlmObjective::LossGradient(const CsrBlock& block,
                                        const DenseVector& w,
                                        DenseVector* gradient,
                                        double* loss_sum) const {
  MLLIBSTAR_CHECK(gradient != &w) << "LossGradient: gradient aliases w";
  ComputeStats stats;
  ForEachMargin(block, w, [&](size_t i, double margin) {
    const size_t n = block.row_nnz(i);
    const double y = block.label(i);
    const double d = loss_.Derivative(margin, y);
    *loss_sum += loss_.Value(margin, y);
    stats.nnz_processed += n;
    if (d != 0.0) {
      gradient->AddScaled(block.row_indices(i), block.row_values(i), n, d);
      stats.nnz_processed += n;
    }
  });
  return stats;
}

ComputeStats GlmObjective::SgdEpoch(const CsrBlock& block, double lr,
                                    Rng* rng, DenseVector* w) const {
  return ShuffledSgd(block, Iota(block.rows()), lr, rng, w);
}

ComputeStats GlmObjective::SgdEpoch(const CsrBlock& block,
                                    const std::vector<size_t>& rows,
                                    double lr, Rng* rng,
                                    DenseVector* w) const {
  return ShuffledSgd(block, rows, lr, rng, w);
}

ComputeStats GlmObjective::ShuffledSgd(const CsrBlock& block,
                                       std::vector<size_t> rows, double lr,
                                       Rng* rng, DenseVector* w) const {
  ComputeStats stats;
  if (rows.empty()) return stats;
  rng->Shuffle(&rows);

  const bool lazy_l2 = lazy_ && reg_.kind() == RegularizerKind::kL2;

  if (lazy_l2) {
    ScaledVector scaled(std::move(*w));
    const double shrink = 1.0 - lr * reg_.lambda();
    MLLIBSTAR_CHECK_GT(shrink, 0.0);
    for (size_t idx : rows) {
      const size_t n = block.row_nnz(idx);
      const double margin =
          scaled.Dot(block.row_indices(idx), block.row_values(idx), n);
      const double d = loss_.Derivative(margin, block.label(idx));
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
    const double d = loss_.Derivative(margin, block.label(idx));
    stats.nnz_processed += n;
    if (reg_.kind() != RegularizerKind::kNone) {
      reg_.ApplyGradientStep(w, lr);
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

ComputeStats GlmObjective::MiniBatchGd(const CsrBlock& block, double lr,
                                       size_t batch_size, size_t num_batches,
                                       Rng* rng, DenseVector* w) const {
  ComputeStats stats;
  if (block.rows() == 0 || batch_size == 0) return stats;

  TouchedBuffer gradient(w->dim());
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<size_t> batch =
        SampleBatch(block.rows(), batch_size, rng);
    gradient.TouchRows(block, batch);
    const ComputeStats batch_stats =
        BatchGradient(block, batch, *w, gradient.mutable_vector());
    stats += batch_stats;
    const double inv_batch = 1.0 / static_cast<double>(batch.size());
    if (reg_.kind() != RegularizerKind::kNone) {
      // A nonzero regularizer makes the update dense -- the expense the
      // paper calls out for Petuum-style batch GD (SIII-B1).
      reg_.ApplyGradientStep(w, lr);
      stats.nnz_processed += w->dim();
    }
    gradient.FlushScaled(-lr * inv_batch, w);
    // Without regularization the batch gradient has at most batch-nnz
    // nonzeros and the flush above applies it sparsely; charge that.
    stats.nnz_processed += reg_.kind() != RegularizerKind::kNone
                               ? w->dim()
                               : batch_stats.nnz_processed / 2;
    ++stats.model_updates;
  }
  return stats;
}

}  // namespace mllibstar
