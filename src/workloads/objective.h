#ifndef MLLIBSTAR_WORKLOADS_OBJECTIVE_H_
#define MLLIBSTAR_WORKLOADS_OBJECTIVE_H_

#include <memory>
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
/// make, and the only way into the GD kernels: each method is one call
/// into a kernel (objective.cc) over the block's packed rows.
/// Trainers hold exactly one of these, built by MakeBinaryObjective.
class GlmObjective {
 public:
  virtual ~GlmObjective() = default;

  /// grad += Σ_{i ∈ batch} ∇l(w, xᵢ, yᵢ) — the SendGradient worker
  /// task (Algorithm 2).
  virtual ComputeStats BatchGradient(const CsrBlock& block,
                                     const std::vector<size_t>& batch,
                                     const DenseVector& w,
                                     DenseVector* gradient) const = 0;

  /// Fused full-partition loss + gradient — the L-BFGS oracle's
  /// worker task.
  virtual ComputeStats LossGradient(const CsrBlock& block,
                                    const DenseVector& w,
                                    DenseVector* gradient,
                                    double* loss_sum) const = 0;

  /// One shuffled local SGD pass (the SendModel local computation,
  /// paper §III-B1, §IV-B). With lazy regularization and L2 the
  /// shrinkage costs O(nnz) per update (ScaledVector); otherwise the
  /// regularizer's dense step runs per update and its O(d) cost is
  /// charged to the returned ComputeStats (the ablation baseline).
  virtual ComputeStats SgdEpoch(const CsrBlock& block, double lr, Rng* rng,
                                DenseVector* w) const = 0;

  /// Subset variant over `rows` of `block` (a sampled mini-batch).
  virtual ComputeStats SgdEpoch(const CsrBlock& block,
                                const std::vector<size_t>& rows, double lr,
                                Rng* rng, DenseVector* w) const = 0;

  /// `num_batches` local mini-batch GD steps (Petuum/Angel style): each
  /// samples `batch_size` rows, and applies their averaged gradient at
  /// the current local model as one update.
  virtual ComputeStats MiniBatchGd(const CsrBlock& block, double lr,
                                   size_t batch_size, size_t num_batches,
                                   Rng* rng, DenseVector* w) const = 0;

  /// Mean pointwise loss (1/n) Σ l(w, xᵢ, yᵢ), without the
  /// regularizer — the data term of the evaluated objective — over a
  /// dataset dealt round-robin into `partitions` (PartitionCsr), with
  /// exactly the bits of MeanLoss (core/model) over the dataset's
  /// points: each partition is walked in order, every row's loss lands
  /// in the slot of its dataset row, and the slots are summed in
  /// dataset order (DESIGN §17). `row_losses` is the caller's buffer,
  /// resized to the row count; reusing it keeps evaluation
  /// allocation-free.
  double MeanPartitionLoss(const std::vector<CsrBlock>& partitions,
                           const DenseVector& w,
                           std::vector<double>* row_losses) const;

 private:
  /// Writes the pointwise loss of row i of `block` to out[i · stride],
  /// as MeanLoss computes it.
  virtual void RowLosses(const CsrBlock& block, const DenseVector& w,
                         double* out, size_t stride) const = 0;
};

/// The binary margin objective over `loss` + `reg` (borrowed, not
/// owned; must outlive the objective).
std::unique_ptr<GlmObjective> MakeBinaryObjective(const Loss* loss,
                                                  const Regularizer* reg,
                                                  bool lazy_regularization);

}  // namespace mllibstar

#endif  // MLLIBSTAR_WORKLOADS_OBJECTIVE_H_
