#include "core/gd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace mllibstar {
namespace {

// Uniform row views over the two partition layouts. The kernels below
// are written once against this interface; instantiated for DataPoint
// vectors and CsrBlocks they execute identical floating-point
// operations in identical order, which is what lets the trainers swap
// in the packed layout without perturbing any simulated result.
struct PointsView {
  const std::vector<DataPoint>& points;
  size_t size() const { return points.size(); }
  const FeatureIndex* indices(size_t i) const {
    return points[i].features.indices.data();
  }
  const double* values(size_t i) const {
    return points[i].features.values.data();
  }
  size_t nnz(size_t i) const { return points[i].nnz(); }
  double label(size_t i) const { return points[i].label; }
};

struct CsrView {
  const CsrBlock& block;
  size_t size() const { return block.rows(); }
  const FeatureIndex* indices(size_t i) const {
    return block.row_indices(i);
  }
  const double* values(size_t i) const { return block.row_values(i); }
  size_t nnz(size_t i) const { return block.row_nnz(i); }
  double label(size_t i) const { return block.label(i); }
};

// Mixed-precision view: identical to CsrView except `values` returns
// the block's float32 copy, so the same kernel templates instantiate
// with f32 value reads (overload resolution picks the f32 Dot /
// AddScaled entry points on DenseVector/ScaledVector) while every
// margin, derivative, and accumulator stays f64. Control flow and RNG
// consumption are untouched, which keeps the f32 path deterministic
// and host_threads-invariant like the f64 one.
struct CsrF32View {
  const CsrBlock& block;
  size_t size() const { return block.rows(); }
  const FeatureIndex* indices(size_t i) const {
    return block.row_indices(i);
  }
  const float* values(size_t i) const { return block.row_values_f32(i); }
  size_t nnz(size_t i) const { return block.row_nnz(i); }
  double label(size_t i) const { return block.label(i); }
};

CsrF32View F32View(const CsrBlock& block) {
  MLLIBSTAR_CHECK(block.has_f32())
      << "CsrBlock::Finalize() must run before the f32 kernels";
  return CsrF32View{block};
}

template <typename View>
ComputeStats BatchGradientImpl(const View& v,
                               const std::vector<size_t>& batch,
                               const Loss& loss, const DenseVector& w,
                               DenseVector* gradient) {
  ComputeStats stats;
  for (size_t idx : batch) {
    const size_t n = v.nnz(idx);
    const double margin = w.Dot(v.indices(idx), v.values(idx), n);
    const double d = loss.Derivative(margin, v.label(idx));
    stats.nnz_processed += n;
    if (d != 0.0) {
      gradient->AddScaled(v.indices(idx), v.values(idx), n, d);
      stats.nnz_processed += n;
    }
  }
  return stats;
}

template <typename View>
ComputeStats LossGradientImpl(const View& v, const Loss& loss,
                              const DenseVector& w, DenseVector* gradient,
                              double* loss_sum) {
  ComputeStats stats;
  const size_t rows = v.size();
  for (size_t i = 0; i < rows; ++i) {
    const size_t n = v.nnz(i);
    const double margin = w.Dot(v.indices(i), v.values(i), n);
    const double y = v.label(i);
    const double d = loss.Derivative(margin, y);
    *loss_sum += loss.Value(margin, y);
    stats.nnz_processed += n;
    if (d != 0.0) {
      gradient->AddScaled(v.indices(i), v.values(i), n, d);
      stats.nnz_processed += n;
    }
  }
  return stats;
}

// One shuffled SGD pass visiting `rows` (shuffled in place).
template <typename View>
ComputeStats SgdEpochImpl(const View& v, std::vector<size_t> rows,
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
      const size_t n = v.nnz(idx);
      const double margin = scaled.Dot(v.indices(idx), v.values(idx), n);
      const double d = loss.Derivative(margin, v.label(idx));
      stats.nnz_processed += n;
      scaled.Shrink(shrink);
      if (d != 0.0) {
        scaled.AddScaled(v.indices(idx), v.values(idx), n, -lr * d);
        stats.nnz_processed += n;
      }
      ++stats.model_updates;
    }
    *w = scaled.ToDense();
    return stats;
  }

  for (size_t idx : rows) {
    const size_t n = v.nnz(idx);
    const double margin = w->Dot(v.indices(idx), v.values(idx), n);
    const double d = loss.Derivative(margin, v.label(idx));
    stats.nnz_processed += n;
    if (reg.kind() != RegularizerKind::kNone) {
      reg.ApplyGradientStep(w, lr);
      // The eager regularizer step touches every coordinate.
      stats.nnz_processed += w->dim();
    }
    if (d != 0.0) {
      w->AddScaled(v.indices(idx), v.values(idx), n, -lr * d);
      stats.nnz_processed += n;
    }
    ++stats.model_updates;
  }
  return stats;
}

template <typename View>
ComputeStats OptimizerEpochImpl(const View& v, const Loss& loss,
                                const Regularizer& reg, double lr,
                                LocalOptimizer* optimizer, Rng* rng,
                                DenseVector* w) {
  ComputeStats stats;
  if (v.size() == 0) return stats;

  std::vector<size_t> order(v.size());
  std::iota(order.begin(), order.end(), size_t{0});
  rng->Shuffle(&order);

  const bool lazy_l2 = reg.kind() == RegularizerKind::kL2;
  const double shrink = 1.0 - lr * reg.lambda();
  std::vector<uint64_t> last_touched;
  if (lazy_l2) {
    MLLIBSTAR_CHECK_GT(shrink, 0.0);
    last_touched.assign(w->dim(), 0);
  }

  uint64_t step = 0;
  for (size_t idx : order) {
    const size_t n = v.nnz(idx);
    const FeatureIndex* idxs = v.indices(idx);
    const double* vals = v.values(idx);
    ++step;
    if (lazy_l2) {
      // Decoupled weight decay, applied lazily to the coordinates this
      // example reads (pending decay from skipped steps first).
      for (size_t i = 0; i < n; ++i) {
        const FeatureIndex j = idxs[i];
        const uint64_t gap = step - last_touched[j];
        if (gap > 0) {
          (*w)[j] *= std::pow(shrink, static_cast<double>(gap));
          last_touched[j] = step;
        }
      }
      stats.nnz_processed += n;
    } else if (reg.kind() != RegularizerKind::kNone) {
      // L1 (and the L1 part of elastic net) has no lazy form here;
      // fall back to the eager dense step.
      reg.ApplyGradientStep(w, lr);
      stats.nnz_processed += w->dim();
    }
    const double margin = w->Dot(idxs, vals, n);
    const double d = loss.Derivative(margin, v.label(idx));
    stats.nnz_processed += n;
    stats.nnz_processed += optimizer->ApplyUpdate(idxs, vals, n, d, lr, w);
    ++stats.model_updates;
  }

  if (lazy_l2) {
    // Flush the pending decay so the returned model is exact.
    for (size_t j = 0; j < w->dim(); ++j) {
      const uint64_t gap = step - last_touched[j];
      if (gap > 0) {
        (*w)[j] *= std::pow(shrink, static_cast<double>(gap));
      }
    }
    stats.nnz_processed += w->dim();
  }
  return stats;
}

template <typename View>
ComputeStats MiniBatchGdImpl(const View& v, const Loss& loss,
                             const Regularizer& reg, double lr,
                             size_t batch_size, size_t num_batches,
                             Rng* rng, DenseVector* w) {
  ComputeStats stats;
  if (v.size() == 0 || batch_size == 0) return stats;

  TouchedBuffer gradient(w->dim());
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<size_t> batch = SampleBatch(v.size(), batch_size, rng);
    for (size_t idx : batch) gradient.Touch(v.indices(idx), v.nnz(idx));
    const ComputeStats batch_stats =
        BatchGradientImpl(v, batch, loss, *w, gradient.mutable_vector());
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

// Turns per-class margins into softmax probabilities in place and
// returns the cross-entropy −log p_label, all via the max-subtraction
// trick so no margin magnitude can overflow.
double SoftmaxInPlace(std::vector<double>* m, size_t label) {
  const double mx = *std::max_element(m->begin(), m->end());
  const double margin_label = (*m)[label];
  double sum = 0.0;
  for (double& v : *m) {
    v = std::exp(v - mx);
    sum += v;
  }
  const double loss = std::log(sum) + mx - margin_label;
  for (double& v : *m) v /= sum;
  return loss;
}

// Reads the K per-class margins of row `idx` under an optional scalar
// scale (the lazy-L2 representation) into `*m`.
template <typename View>
void SoftmaxMargins(const View& v, size_t idx, size_t num_classes,
                    size_t num_features, double scale, const DenseVector& w,
                    std::vector<double>* m) {
  const size_t n = v.nnz(idx);
  const FeatureIndex* idxs = v.indices(idx);
  const auto* vals = v.values(idx);  // const double* or const float*
  for (size_t k = 0; k < num_classes; ++k) {
    (*m)[k] = scale * w.Dot(idxs, vals, n, k * num_features);
  }
}

template <typename View>
ComputeStats BatchGradientSoftmaxImpl(const View& v,
                                      const std::vector<size_t>& batch,
                                      size_t num_classes,
                                      size_t num_features,
                                      const DenseVector& w,
                                      DenseVector* gradient,
                                      double* loss_sum) {
  ComputeStats stats;
  std::vector<double> m(num_classes);
  for (size_t idx : batch) {
    const size_t n = v.nnz(idx);
    const FeatureIndex* idxs = v.indices(idx);
    const auto* vals = v.values(idx);
    SoftmaxMargins(v, idx, num_classes, num_features, 1.0, w, &m);
    stats.nnz_processed += num_classes * n;
    const size_t label = static_cast<size_t>(v.label(idx));
    MLLIBSTAR_CHECK_LT(label, num_classes);
    const double loss = SoftmaxInPlace(&m, label);
    if (loss_sum != nullptr) *loss_sum += loss;
    for (size_t k = 0; k < num_classes; ++k) {
      const double coef = m[k] - (k == label ? 1.0 : 0.0);
      if (coef != 0.0) {
        gradient->AddScaled(idxs, vals, n, coef, k * num_features);
        stats.nnz_processed += n;
      }
    }
  }
  return stats;
}

template <typename View>
ComputeStats SgdEpochSoftmaxImpl(const View& v, std::vector<size_t> rows,
                                 size_t num_classes, size_t num_features,
                                 const Regularizer& reg, double lr,
                                 bool lazy_regularization, Rng* rng,
                                 DenseVector* w) {
  ComputeStats stats;
  if (rows.empty()) return stats;
  rng->Shuffle(&rows);

  std::vector<double> m(num_classes);
  const bool lazy_l2 =
      lazy_regularization && reg.kind() == RegularizerKind::kL2;

  if (lazy_l2) {
    // The ScaledVector trick inlined: one scalar scale over the whole
    // flattened model, sparse updates divided by it, re-materialized
    // at the same 1e-9 threshold ScaledVector uses.
    double scale = 1.0;
    const double shrink = 1.0 - lr * reg.lambda();
    MLLIBSTAR_CHECK_GT(shrink, 0.0);
    for (size_t idx : rows) {
      const size_t n = v.nnz(idx);
      const FeatureIndex* idxs = v.indices(idx);
      const auto* vals = v.values(idx);
      SoftmaxMargins(v, idx, num_classes, num_features, scale, *w, &m);
      stats.nnz_processed += num_classes * n;
      scale *= shrink;
      if (scale < 1e-9) {
        w->Scale(scale);
        scale = 1.0;
      }
      const size_t label = static_cast<size_t>(v.label(idx));
      MLLIBSTAR_CHECK_LT(label, num_classes);
      SoftmaxInPlace(&m, label);
      for (size_t k = 0; k < num_classes; ++k) {
        const double coef = m[k] - (k == label ? 1.0 : 0.0);
        if (coef != 0.0) {
          w->AddScaled(idxs, vals, n, -lr * coef / scale,
                       k * num_features);
          stats.nnz_processed += n;
        }
      }
      ++stats.model_updates;
    }
    w->Scale(scale);
    return stats;
  }

  for (size_t idx : rows) {
    const size_t n = v.nnz(idx);
    const FeatureIndex* idxs = v.indices(idx);
    const auto* vals = v.values(idx);
    SoftmaxMargins(v, idx, num_classes, num_features, 1.0, *w, &m);
    stats.nnz_processed += num_classes * n;
    if (reg.kind() != RegularizerKind::kNone) {
      reg.ApplyGradientStep(w, lr);
      stats.nnz_processed += w->dim();
    }
    const size_t label = static_cast<size_t>(v.label(idx));
    MLLIBSTAR_CHECK_LT(label, num_classes);
    SoftmaxInPlace(&m, label);
    for (size_t k = 0; k < num_classes; ++k) {
      const double coef = m[k] - (k == label ? 1.0 : 0.0);
      if (coef != 0.0) {
        w->AddScaled(idxs, vals, n, -lr * coef, k * num_features);
        stats.nnz_processed += n;
      }
    }
    ++stats.model_updates;
  }
  return stats;
}

template <typename View>
ComputeStats OptimizerEpochSoftmaxImpl(const View& v, size_t num_classes,
                                       size_t num_features,
                                       const Regularizer& reg, double lr,
                                       LocalOptimizer* optimizer, Rng* rng,
                                       DenseVector* w) {
  ComputeStats stats;
  if (v.size() == 0) return stats;

  std::vector<size_t> order(v.size());
  std::iota(order.begin(), order.end(), size_t{0});
  rng->Shuffle(&order);

  const bool lazy_l2 = reg.kind() == RegularizerKind::kL2;
  const double shrink = 1.0 - lr * reg.lambda();
  std::vector<uint64_t> last_touched;
  if (lazy_l2) {
    MLLIBSTAR_CHECK_GT(shrink, 0.0);
    last_touched.assign(w->dim(), 0);
  }

  std::vector<double> m(num_classes);
  std::vector<FeatureIndex> shifted;
  uint64_t step = 0;
  for (size_t idx : order) {
    const size_t n = v.nnz(idx);
    const FeatureIndex* idxs = v.indices(idx);
    const double* vals = v.values(idx);
    ++step;
    if (lazy_l2) {
      for (size_t k = 0; k < num_classes; ++k) {
        const size_t base = k * num_features;
        for (size_t i = 0; i < n; ++i) {
          const size_t j = base + idxs[i];
          const uint64_t gap = step - last_touched[j];
          if (gap > 0) {
            (*w)[j] *= std::pow(shrink, static_cast<double>(gap));
            last_touched[j] = step;
          }
        }
      }
      stats.nnz_processed += num_classes * n;
    } else if (reg.kind() != RegularizerKind::kNone) {
      reg.ApplyGradientStep(w, lr);
      stats.nnz_processed += w->dim();
    }
    SoftmaxMargins(v, idx, num_classes, num_features, 1.0, *w, &m);
    stats.nnz_processed += num_classes * n;
    const size_t label = static_cast<size_t>(v.label(idx));
    MLLIBSTAR_CHECK_LT(label, num_classes);
    SoftmaxInPlace(&m, label);
    shifted.resize(n);
    for (size_t k = 0; k < num_classes; ++k) {
      const double coef = m[k] - (k == label ? 1.0 : 0.0);
      const FeatureIndex base =
          static_cast<FeatureIndex>(k * num_features);
      for (size_t i = 0; i < n; ++i) shifted[i] = base + idxs[i];
      stats.nnz_processed +=
          optimizer->ApplyUpdate(shifted.data(), vals, n, coef, lr, w);
    }
    ++stats.model_updates;
  }

  if (lazy_l2) {
    for (size_t j = 0; j < w->dim(); ++j) {
      const uint64_t gap = step - last_touched[j];
      if (gap > 0) {
        (*w)[j] *= std::pow(shrink, static_cast<double>(gap));
      }
    }
    stats.nnz_processed += w->dim();
  }
  return stats;
}

template <typename View>
ComputeStats MiniBatchGdSoftmaxImpl(const View& v, size_t num_classes,
                                    size_t num_features,
                                    const Regularizer& reg, double lr,
                                    size_t batch_size, size_t num_batches,
                                    Rng* rng, DenseVector* w) {
  ComputeStats stats;
  if (v.size() == 0 || batch_size == 0) return stats;

  TouchedBuffer gradient(w->dim(), num_classes);
  for (size_t b = 0; b < num_batches; ++b) {
    const std::vector<size_t> batch = SampleBatch(v.size(), batch_size, rng);
    for (size_t idx : batch) gradient.Touch(v.indices(idx), v.nnz(idx));
    const ComputeStats batch_stats =
        BatchGradientSoftmaxImpl(v, batch, num_classes, num_features, *w,
                                 gradient.mutable_vector(), nullptr);
    stats += batch_stats;
    const double inv_batch = 1.0 / static_cast<double>(batch.size());
    if (reg.kind() != RegularizerKind::kNone) {
      reg.ApplyGradientStep(w, lr);
      stats.nnz_processed += w->dim();
    }
    gradient.FlushScaled(-lr * inv_batch, w);
    stats.nnz_processed += reg.kind() != RegularizerKind::kNone
                               ? w->dim()
                               : batch_stats.nnz_processed / 2;
    ++stats.model_updates;
  }
  return stats;
}

}  // namespace

ComputeStats AccumulateBatchGradient(const std::vector<DataPoint>& points,
                                     const std::vector<size_t>& batch,
                                     const Loss& loss, const DenseVector& w,
                                     DenseVector* gradient) {
  return BatchGradientImpl(PointsView{points}, batch, loss, w, gradient);
}

ComputeStats AccumulateBatchGradient(const CsrBlock& block,
                                     const std::vector<size_t>& batch,
                                     const Loss& loss, const DenseVector& w,
                                     DenseVector* gradient) {
  return BatchGradientImpl(CsrView{block}, batch, loss, w, gradient);
}

ComputeStats AccumulateLossGradient(const std::vector<DataPoint>& points,
                                    const Loss& loss, const DenseVector& w,
                                    DenseVector* gradient,
                                    double* loss_sum) {
  return LossGradientImpl(PointsView{points}, loss, w, gradient, loss_sum);
}

ComputeStats AccumulateLossGradient(const CsrBlock& block, const Loss& loss,
                                    const DenseVector& w,
                                    DenseVector* gradient,
                                    double* loss_sum) {
  return LossGradientImpl(CsrView{block}, loss, w, gradient, loss_sum);
}

std::vector<size_t> SampleBatch(size_t n, size_t batch_size, Rng* rng) {
  if (batch_size >= n) return Iota(n);
  std::vector<size_t> batch;
  batch.reserve(batch_size);
  if (batch_size * 4 >= n) {
    // Large fractions: partial Fisher-Yates over an index pool.
    std::vector<size_t> pool = Iota(n);
    for (size_t i = 0; i < batch_size; ++i) {
      const size_t j = i + rng->NextUint64(n - i);
      std::swap(pool[i], pool[j]);
      batch.push_back(pool[i]);
    }
  } else {
    // Floyd's sampling: exactly batch_size draws, O(batch_size)
    // memory, uniform over subsets — unlike rejection sampling, no
    // O(n) bitmap and no retries as the batch fills.
    std::unordered_set<size_t> chosen;
    chosen.reserve(batch_size * 2);
    for (size_t i = n - batch_size; i < n; ++i) {
      const size_t j = rng->NextUint64(i + 1);
      if (chosen.insert(j).second) {
        batch.push_back(j);
      } else {
        chosen.insert(i);
        batch.push_back(i);
      }
    }
  }
  return batch;
}

void ScaledVector::Shrink(double factor) {
  MLLIBSTAR_CHECK_GT(factor, 0.0);
  scale_ *= factor;
  if (scale_ < 1e-9) Materialize();
}

void ScaledVector::AddScaled(const SparseVector& x, double alpha) {
  v_.AddScaled(x, alpha / scale_);
}

void ScaledVector::AddScaled(const FeatureIndex* indices,
                             const double* values, size_t nnz,
                             double alpha) {
  v_.AddScaled(indices, values, nnz, alpha / scale_);
}

void ScaledVector::AddScaled(const FeatureIndex* indices,
                             const float* values, size_t nnz,
                             double alpha) {
  v_.AddScaled(indices, values, nnz, alpha / scale_);
}

DenseVector ScaledVector::ToDense() const {
  DenseVector result = v_;
  result.Scale(scale_);
  return result;
}

void ScaledVector::Materialize() {
  v_.Scale(scale_);
  scale_ = 1.0;
}

ComputeStats LocalSgdEpoch(const std::vector<DataPoint>& points,
                           const Loss& loss, const Regularizer& reg,
                           double lr, bool lazy_regularization, Rng* rng,
                           DenseVector* w) {
  return SgdEpochImpl(PointsView{points}, Iota(points.size()), loss, reg,
                      lr, lazy_regularization, rng, w);
}

ComputeStats LocalSgdEpoch(const CsrBlock& block, const Loss& loss,
                           const Regularizer& reg, double lr,
                           bool lazy_regularization, Rng* rng,
                           DenseVector* w) {
  return SgdEpochImpl(CsrView{block}, Iota(block.rows()), loss, reg, lr,
                      lazy_regularization, rng, w);
}

ComputeStats LocalSgdEpoch(const CsrBlock& block,
                           const std::vector<size_t>& rows,
                           const Loss& loss, const Regularizer& reg,
                           double lr, bool lazy_regularization, Rng* rng,
                           DenseVector* w) {
  return SgdEpochImpl(CsrView{block}, rows, loss, reg, lr,
                      lazy_regularization, rng, w);
}

ComputeStats LocalOptimizerEpoch(const std::vector<DataPoint>& points,
                                 const Loss& loss, const Regularizer& reg,
                                 double lr, LocalOptimizer* optimizer,
                                 Rng* rng, DenseVector* w) {
  return OptimizerEpochImpl(PointsView{points}, loss, reg, lr, optimizer,
                            rng, w);
}

ComputeStats LocalOptimizerEpoch(const CsrBlock& block, const Loss& loss,
                                 const Regularizer& reg, double lr,
                                 LocalOptimizer* optimizer, Rng* rng,
                                 DenseVector* w) {
  return OptimizerEpochImpl(CsrView{block}, loss, reg, lr, optimizer, rng,
                            w);
}

ComputeStats LocalMiniBatchGd(const std::vector<DataPoint>& points,
                              const Loss& loss, const Regularizer& reg,
                              double lr, size_t batch_size,
                              size_t num_batches, Rng* rng,
                              DenseVector* w) {
  return MiniBatchGdImpl(PointsView{points}, loss, reg, lr, batch_size,
                         num_batches, rng, w);
}

ComputeStats LocalMiniBatchGd(const CsrBlock& block, const Loss& loss,
                              const Regularizer& reg, double lr,
                              size_t batch_size, size_t num_batches,
                              Rng* rng, DenseVector* w) {
  return MiniBatchGdImpl(CsrView{block}, loss, reg, lr, batch_size,
                         num_batches, rng, w);
}

ComputeStats AccumulateBatchGradientSoftmax(
    const std::vector<DataPoint>& points, const std::vector<size_t>& batch,
    size_t num_classes, size_t num_features, const DenseVector& w,
    DenseVector* gradient) {
  return BatchGradientSoftmaxImpl(PointsView{points}, batch, num_classes,
                                  num_features, w, gradient, nullptr);
}

ComputeStats AccumulateBatchGradientSoftmax(
    const CsrBlock& block, const std::vector<size_t>& batch,
    size_t num_classes, size_t num_features, const DenseVector& w,
    DenseVector* gradient) {
  return BatchGradientSoftmaxImpl(CsrView{block}, batch, num_classes,
                                  num_features, w, gradient, nullptr);
}

ComputeStats AccumulateLossGradientSoftmax(
    const std::vector<DataPoint>& points, size_t num_classes,
    size_t num_features, const DenseVector& w, DenseVector* gradient,
    double* loss_sum) {
  return BatchGradientSoftmaxImpl(PointsView{points},
                                  Iota(points.size()), num_classes,
                                  num_features, w, gradient, loss_sum);
}

ComputeStats AccumulateLossGradientSoftmax(const CsrBlock& block,
                                           size_t num_classes,
                                           size_t num_features,
                                           const DenseVector& w,
                                           DenseVector* gradient,
                                           double* loss_sum) {
  return BatchGradientSoftmaxImpl(CsrView{block}, Iota(block.rows()),
                                  num_classes, num_features, w, gradient,
                                  loss_sum);
}

ComputeStats LocalSgdEpochSoftmax(const std::vector<DataPoint>& points,
                                  size_t num_classes, size_t num_features,
                                  const Regularizer& reg, double lr,
                                  bool lazy_regularization, Rng* rng,
                                  DenseVector* w) {
  return SgdEpochSoftmaxImpl(PointsView{points}, Iota(points.size()),
                             num_classes, num_features, reg, lr,
                             lazy_regularization, rng, w);
}

ComputeStats LocalSgdEpochSoftmax(const CsrBlock& block, size_t num_classes,
                                  size_t num_features, const Regularizer& reg,
                                  double lr, bool lazy_regularization,
                                  Rng* rng, DenseVector* w) {
  return SgdEpochSoftmaxImpl(CsrView{block}, Iota(block.rows()),
                             num_classes, num_features, reg, lr,
                             lazy_regularization, rng, w);
}

ComputeStats LocalSgdEpochSoftmax(const CsrBlock& block,
                                  const std::vector<size_t>& rows,
                                  size_t num_classes, size_t num_features,
                                  const Regularizer& reg, double lr,
                                  bool lazy_regularization, Rng* rng,
                                  DenseVector* w) {
  return SgdEpochSoftmaxImpl(CsrView{block}, rows, num_classes,
                             num_features, reg, lr, lazy_regularization,
                             rng, w);
}

ComputeStats LocalOptimizerEpochSoftmax(const std::vector<DataPoint>& points,
                                        size_t num_classes,
                                        size_t num_features,
                                        const Regularizer& reg, double lr,
                                        LocalOptimizer* optimizer, Rng* rng,
                                        DenseVector* w) {
  return OptimizerEpochSoftmaxImpl(PointsView{points}, num_classes,
                                   num_features, reg, lr, optimizer, rng,
                                   w);
}

ComputeStats LocalOptimizerEpochSoftmax(const CsrBlock& block,
                                        size_t num_classes,
                                        size_t num_features,
                                        const Regularizer& reg, double lr,
                                        LocalOptimizer* optimizer, Rng* rng,
                                        DenseVector* w) {
  return OptimizerEpochSoftmaxImpl(CsrView{block}, num_classes,
                                   num_features, reg, lr, optimizer, rng,
                                   w);
}

ComputeStats LocalMiniBatchGdSoftmax(const std::vector<DataPoint>& points,
                                     size_t num_classes, size_t num_features,
                                     const Regularizer& reg, double lr,
                                     size_t batch_size, size_t num_batches,
                                     Rng* rng, DenseVector* w) {
  return MiniBatchGdSoftmaxImpl(PointsView{points}, num_classes,
                                num_features, reg, lr, batch_size,
                                num_batches, rng, w);
}

ComputeStats LocalMiniBatchGdSoftmax(const CsrBlock& block,
                                     size_t num_classes, size_t num_features,
                                     const Regularizer& reg, double lr,
                                     size_t batch_size, size_t num_batches,
                                     Rng* rng, DenseVector* w) {
  return MiniBatchGdSoftmaxImpl(CsrView{block}, num_classes, num_features,
                                reg, lr, batch_size, num_batches, rng, w);
}

// ---- Mixed-precision (f32 storage) entry points ------------------------
// Same templates instantiated with CsrF32View, so shuffles, sampling,
// and update structure are identical to the f64 path; only the feature
// value reads narrow. LocalOptimizerEpoch* has no F32 variant: the
// stateful LocalOptimizer interface takes f64 value spans, and callers
// (GlmObjective) fall back to the f64 kernels there.

ComputeStats AccumulateBatchGradientF32(const CsrBlock& block,
                                        const std::vector<size_t>& batch,
                                        const Loss& loss,
                                        const DenseVector& w,
                                        DenseVector* gradient) {
  return BatchGradientImpl(F32View(block), batch, loss, w, gradient);
}

ComputeStats AccumulateLossGradientF32(const CsrBlock& block,
                                       const Loss& loss,
                                       const DenseVector& w,
                                       DenseVector* gradient,
                                       double* loss_sum) {
  return LossGradientImpl(F32View(block), loss, w, gradient, loss_sum);
}

ComputeStats LocalSgdEpochF32(const CsrBlock& block, const Loss& loss,
                              const Regularizer& reg, double lr,
                              bool lazy_regularization, Rng* rng,
                              DenseVector* w) {
  return SgdEpochImpl(F32View(block), Iota(block.rows()), loss, reg, lr,
                      lazy_regularization, rng, w);
}

ComputeStats LocalSgdEpochF32(const CsrBlock& block,
                              const std::vector<size_t>& rows,
                              const Loss& loss, const Regularizer& reg,
                              double lr, bool lazy_regularization, Rng* rng,
                              DenseVector* w) {
  return SgdEpochImpl(F32View(block), rows, loss, reg, lr,
                      lazy_regularization, rng, w);
}

ComputeStats LocalMiniBatchGdF32(const CsrBlock& block, const Loss& loss,
                                 const Regularizer& reg, double lr,
                                 size_t batch_size, size_t num_batches,
                                 Rng* rng, DenseVector* w) {
  return MiniBatchGdImpl(F32View(block), loss, reg, lr, batch_size,
                         num_batches, rng, w);
}

ComputeStats AccumulateBatchGradientSoftmaxF32(
    const CsrBlock& block, const std::vector<size_t>& batch,
    size_t num_classes, size_t num_features, const DenseVector& w,
    DenseVector* gradient) {
  return BatchGradientSoftmaxImpl(F32View(block), batch, num_classes,
                                  num_features, w, gradient, nullptr);
}

ComputeStats AccumulateLossGradientSoftmaxF32(const CsrBlock& block,
                                              size_t num_classes,
                                              size_t num_features,
                                              const DenseVector& w,
                                              DenseVector* gradient,
                                              double* loss_sum) {
  return BatchGradientSoftmaxImpl(F32View(block), Iota(block.rows()),
                                  num_classes, num_features, w, gradient,
                                  loss_sum);
}

ComputeStats LocalSgdEpochSoftmaxF32(const CsrBlock& block,
                                     size_t num_classes, size_t num_features,
                                     const Regularizer& reg, double lr,
                                     bool lazy_regularization, Rng* rng,
                                     DenseVector* w) {
  return SgdEpochSoftmaxImpl(F32View(block), Iota(block.rows()),
                             num_classes, num_features, reg, lr,
                             lazy_regularization, rng, w);
}

ComputeStats LocalSgdEpochSoftmaxF32(const CsrBlock& block,
                                     const std::vector<size_t>& rows,
                                     size_t num_classes, size_t num_features,
                                     const Regularizer& reg, double lr,
                                     bool lazy_regularization, Rng* rng,
                                     DenseVector* w) {
  return SgdEpochSoftmaxImpl(F32View(block), rows, num_classes,
                             num_features, reg, lr, lazy_regularization,
                             rng, w);
}

ComputeStats LocalMiniBatchGdSoftmaxF32(const CsrBlock& block,
                                        size_t num_classes,
                                        size_t num_features,
                                        const Regularizer& reg, double lr,
                                        size_t batch_size,
                                        size_t num_batches, Rng* rng,
                                        DenseVector* w) {
  return MiniBatchGdSoftmaxImpl(F32View(block), num_classes, num_features,
                                reg, lr, batch_size, num_batches, rng, w);
}

}  // namespace mllibstar
