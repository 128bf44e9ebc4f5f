#ifndef MLLIBSTAR_WORKLOADS_OBJECTIVE_H_
#define MLLIBSTAR_WORKLOADS_OBJECTIVE_H_

#include <vector>

#include "common/random.h"
#include "core/csr_block.h"
#include "core/gd.h"
#include "core/loss.h"
#include "core/regularizer.h"
#include "core/vector.h"

namespace mllibstar {

/// The binary GLM objective (paper Equation 1: a margin loss plus
/// Ω(w)) viewed through the kernel calls the seven distributed trainers
/// make, and the only way into the GD kernels: each method runs one
/// kernel loop (objective.cc) over the block's packed rows. Owns its
/// loss and its regularizer; every Trainer holds exactly one.
class GlmObjective {
 public:
  /// With `lazy_regularization`, local SGD applies L2 through a
  /// ScaledVector instead of a dense step per update.
  GlmObjective(LossKind loss, Regularizer regularizer,
               bool lazy_regularization);

  const Loss& loss() const { return loss_; }
  const Regularizer& regularizer() const { return reg_; }

  /// grad += Σ_{i ∈ batch} ∇l(w, xᵢ, yᵢ) — the SendGradient worker
  /// task (Algorithm 2). `gradient` must not be `w` (CHECKed): the
  /// margins of a chunk of rows are taken before its axpys.
  ComputeStats BatchGradient(const CsrBlock& block,
                             const std::vector<size_t>& batch,
                             const DenseVector& w,
                             DenseVector* gradient) const;

  /// Fused full-partition loss + gradient — the L-BFGS oracle's
  /// worker task. `gradient` must not be `w` (CHECKed).
  ComputeStats LossGradient(const CsrBlock& block, const DenseVector& w,
                            DenseVector* gradient, double* loss_sum) const;

  /// One shuffled local SGD pass (the SendModel local computation,
  /// paper §III-B1, §IV-B). With lazy regularization and L2 the
  /// shrinkage costs O(nnz) per update (ScaledVector); otherwise the
  /// regularizer's dense step runs per update and its O(d) cost is
  /// charged to the returned ComputeStats (the ablation baseline).
  ComputeStats SgdEpoch(const CsrBlock& block, double lr, Rng* rng,
                        DenseVector* w) const;

  /// Subset variant over `rows` of `block` (a sampled mini-batch).
  ComputeStats SgdEpoch(const CsrBlock& block,
                        const std::vector<size_t>& rows, double lr, Rng* rng,
                        DenseVector* w) const;

  /// `num_batches` local mini-batch GD steps (Petuum/Angel style): each
  /// samples `batch_size` rows, and applies their averaged gradient at
  /// the current local model as one update.
  ComputeStats MiniBatchGd(const CsrBlock& block, double lr,
                           size_t batch_size, size_t num_batches, Rng* rng,
                           DenseVector* w) const;

 private:
  /// One shuffled SGD pass visiting `rows` (shuffled in place).
  ComputeStats ShuffledSgd(const CsrBlock& block, std::vector<size_t> rows,
                           double lr, Rng* rng, DenseVector* w) const;

  Loss loss_;
  Regularizer reg_;
  bool lazy_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_WORKLOADS_OBJECTIVE_H_
