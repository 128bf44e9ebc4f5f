#ifndef MLLIBSTAR_PS_PARAMETER_SERVER_H_
#define MLLIBSTAR_PS_PARAMETER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/codec.h"
#include "core/vector.h"
#include "sim/sim_cluster.h"

namespace mllibstar {

/// Consistency schemes a parameter server can enforce between workers
/// (paper Section III-B).
enum class ConsistencyKind {
  kBsp,  ///< barrier every round
  kSsp,  ///< a worker may lead the slowest by at most `staleness` rounds
  kAsp,  ///< no coordination
};

/// How the server combines worker contributions (paper Section IV-B1
/// remark: Petuum uses summation, MLlib*/Petuum* use averaging).
enum class PsAggregation {
  kSumDeltas,      ///< w += Σ_r (w_r − w_pulled_r), applied as pushes land
  kAverageModels,  ///< w ← (1/k) Σ_r w_r at the end of each round
};

/// Configuration of the parameter-server tier.
struct PsConfig {
  size_t num_shards = 2;
  ConsistencyKind consistency = ConsistencyKind::kBsp;
  int staleness = 0;  ///< only used by kSsp
  PsAggregation aggregation = PsAggregation::kSumDeltas;
  /// Multiplier applied to pushed deltas in kSumDeltas mode (real
  /// systems normalize by worker count or batch size; 1.0 = raw sum).
  double delta_scale = 1.0;
  /// Workers pull only the coordinates their partition touches
  /// (Angel's feature-filtered pull) instead of the dense model.
  bool sparse_pull = false;

  /// Robustness knobs: a pull/push that is dropped (fault plan) or
  /// that targets a down shard times out and retries with jittered
  /// exponential backoff — delay = min(backoff_max_sec,
  /// backoff_base_sec * 2^attempt) * (0.5 + 0.5 * U[0,1)) — up to
  /// max_request_retries times before proceeding regardless (the shard
  /// queue then absorbs the wait).
  double request_timeout_sec = 0.25;
  double backoff_base_sec = 0.05;
  double backoff_max_sec = 2.0;
  size_t max_request_retries = 6;

  /// How often a shard snapshots its model range to stable storage.
  /// 0 = after every applied update (lossless: a crash rolls back to
  /// the state just before the in-flight request, which is then
  /// retried — bit-identical to a crash-free run). Positive values
  /// trade checkpoint overhead for lost updates on crash.
  double server_checkpoint_every_sec = 0.0;

  /// SSP/ASP graceful degradation: pushes staler than the staleness
  /// bound are discarded (and counted) instead of applied.
  bool discard_stale_pushes = false;
};

/// The global model sharded across server nodes, plus the timing model
/// for pull/push traffic (paper Figure 2c).
///
/// As everywhere in this codebase, the numeric state lives host-side
/// in one place; the shards exist to model queueing: each shard's
/// link serializes the requests it serves, which is exactly why a
/// parameter server beats a single driver — the same bytes spread
/// over `num_shards` links.
class PsContext {
 public:
  /// `sim` must outlive this context and have been built with
  /// config.num_shards server nodes. `codec` (non-owning, may outlive
  /// this context) sizes all pull/push traffic; nullptr means the
  /// uncompressed DenseF64 wire.
  PsContext(SimCluster* sim, size_t dim, const PsConfig& config,
            const GradientCodec* codec = nullptr);

  const PsConfig& config() const { return config_; }
  size_t dim() const { return model_.dim(); }
  const GradientCodec& wire_codec() const { return *codec_; }

  const DenseVector& model() const { return model_; }

  /// The model as a pulling worker receives it through the wire codec.
  /// Pulls at the same model version share one decoded snapshot; each
  /// pull still accounts its own transmit. Every change to the model
  /// (the mutators below and a shard-crash rollback) bumps the
  /// version. Call after TimePull, which may roll the model back.
  std::shared_ptr<const DenseVector> PullSnapshot();

  /// Charges the time for `worker` to pull the full model (one
  /// request per shard, shard links serve in parallel, the worker's
  /// inbound link is the floor). Returns the completion time and
  /// advances the worker and shard clocks. The `bytes` overload pulls
  /// a filtered slice (sparse_pull).
  SimTime TimePull(SimNode* worker);
  SimTime TimePull(SimNode* worker, uint64_t bytes);

  /// Charges the time for `worker` to push an update of `bytes`
  /// (sparse updates are cheaper — real PS clients ship index/value
  /// pairs), including the shards' apply work. Returns the completion
  /// time. The overload without `bytes` pushes a dense full model.
  SimTime TimePush(SimNode* worker, uint64_t bytes);
  SimTime TimePush(SimNode* worker);

  /// Wire size of a sparse update with `nnz` nonzeros out of `dim`
  /// coordinates through this context's codec (4-byte index + encoded
  /// value per entry, never more than the dense encoding) — the same
  /// rule the MLlib* shuffle accounting uses.
  uint64_t SparseBytes(size_t nnz) const {
    return codec_->SparseEncodedBytes(nnz, dim());
  }

  /// The uncompressed special case (12 bytes per entry), kept for
  /// codec-free callers.
  static uint64_t SparseUpdateBytes(size_t nnz, size_t dim);

  /// Replaces the model (warm start, trainer resume) and re-snapshots
  /// the crash-restore state from it, so a later shard crash rolls back
  /// to this model and not to a stale one.
  void ResetModel(DenseVector model);

  /// kSumDeltas: applies `delta` (scaled by config.delta_scale) to the
  /// global model immediately, in push order.
  void ApplyDelta(const DenseVector& delta);

  /// kAverageModels: adds a completed round's mean delta to the model.
  /// The crash-restore snapshot follows in lossless mode
  /// (server_checkpoint_every_sec == 0); a positive cadence keeps its
  /// lossy window.
  void ApplyRoundAverage(const DenseVector& mean_delta);

  /// Total bytes moved through the server tier so far.
  uint64_t total_bytes() const { return total_bytes_; }

  /// Time the last push completed (gates server-side checkpoints).
  SimTime last_push_end() const { return last_push_end_; }

  /// Permanent departure of shard `ev.node` (a membership
  /// kServerLeave event): its model range migrates to the next alive
  /// shard, which then serves redirected pulls/pushes for both ranges
  /// (its link serializes the doubled slices — graceful degradation,
  /// not a stall). Ignored if it would leave zero alive shards.
  /// Numerics never change: the model is host-side and global.
  void OnServerLeft(const MembershipEvent& ev);

  /// The shard actually serving shard `s`'s range (s itself, or the
  /// departed shard's migration successor).
  size_t ServingShard(size_t s) const;

  /// Quiet resume hook: marks shard `s` as departed without charging
  /// the migration again (the checkpointed membership view says it
  /// happened before the snapshot was taken).
  void MarkServerLeft(size_t s) { shard_left_[s] = true; }

 private:
  SimTime TimeTransfer(SimNode* worker, uint64_t total_bytes, bool is_pull,
                       const std::string& detail);

  /// Crashes shard `s` at virtual time `at`: its model range rolls
  /// back to the last server checkpoint, it is down for
  /// server_restart_seconds, then pays the restore transfer.
  void HandleShardCrash(size_t s, SimTime at);

  /// Snapshots the model for crash restore when the checkpoint
  /// cadence says so (always when server_checkpoint_every_sec == 0).
  void MaybeServerCheckpoint();

  SimCluster* sim_;
  PsConfig config_;
  const GradientCodec* codec_;
  DenseVector model_;
  /// Bumped by every change to model_, so equal versions mean equal
  /// models.
  uint64_t version_ = 0;
  /// The last pull snapshot and the model version it was taken at.
  std::shared_ptr<const DenseVector> pull_snapshot_;
  uint64_t pull_snapshot_version_ = 0;
  uint64_t total_bytes_ = 0;
  /// Per-shard time until which the shard is unavailable (crash +
  /// restore in progress).
  std::vector<SimTime> shard_down_until_;
  /// Shards evicted by the failure detector; their ranges are served
  /// by the next alive shard.
  std::vector<bool> shard_left_;
  /// Last server-side snapshot of the model (crash rollback target).
  DenseVector ckpt_model_;
  SimTime last_ckpt_time_ = 0.0;
  SimTime last_push_end_ = 0.0;
};

/// Returns the virtual time at which a worker may start round `round`
/// under the given consistency model, given each worker's completion
/// time per finished round. `finish_times[r][t]` is worker r's
/// completion time of round t; rounds not yet run are absent.
SimTime ConsistencyStartTime(ConsistencyKind kind, int staleness,
                             size_t worker, int round,
                             const std::vector<std::vector<SimTime>>&
                                 finish_times);

}  // namespace mllibstar

#endif  // MLLIBSTAR_PS_PARAMETER_SERVER_H_
