#ifndef MLLIBSTAR_PS_PARAMETER_SERVER_H_
#define MLLIBSTAR_PS_PARAMETER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/vector.h"
#include "obs/round_profile.h"
#include "sim/sim_cluster.h"

namespace mllibstar {

/// Configuration of the parameter-server tier.
struct PsConfig {
  size_t num_shards = 2;
  /// The SSP bound (paper Section III-B): a worker may start round t
  /// once every worker has finished round t - 1 - staleness. 0 is BSP,
  /// a barrier every round; a bound at or above the round budget is
  /// ASP, where no worker ever waits on another.
  int staleness = 0;
};

/// Request retries: a pull/push that is dropped (fault plan) or that
/// targets a down shard times out and retries with jittered
/// exponential backoff — delay = min(kPsBackoffMaxSec,
/// kPsBackoffBaseSec * 2^attempt) * (0.5 + 0.5 * U[0,1)) — up to
/// kPsMaxRequestRetries times before proceeding regardless (the shard
/// queue then absorbs the wait).
inline constexpr double kPsRequestTimeoutSec = 0.25;
inline constexpr double kPsBackoffBaseSec = 0.05;
inline constexpr double kPsBackoffMaxSec = 2.0;
inline constexpr size_t kPsMaxRequestRetries = 6;

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
  /// config.num_shards server nodes.
  PsContext(SimCluster* sim, size_t dim, const PsConfig& config);

  size_t dim() const { return model_.dim(); }

  const DenseVector& model() const { return model_; }

  /// The model as a pulling worker receives it. Pulls at the same model
  /// version share one snapshot. Every mutator below bumps the version.
  std::shared_ptr<const DenseVector> PullSnapshot();

  /// Charges the time for `worker` to pull the full dense model (one
  /// request per shard, shard links serve in parallel, the worker's
  /// inbound link is the floor). Returns the completion time and
  /// advances the worker and shard clocks.
  SimTime TimePull(SimNode* worker);

  /// Charges the time for `worker` to push an update of `bytes`
  /// (sparse updates are cheaper — real PS clients ship index/value
  /// pairs, NetworkModel::SparseBytes), including the shards' apply
  /// work. Returns the completion time.
  SimTime TimePush(SimNode* worker, uint64_t bytes);

  /// Replaces the model (trainer resume).
  void ResetModel(DenseVector model);

  /// Summation (Petuum, Angel): adds `scale` times `delta` to the
  /// global model immediately, in push order.
  void ApplyDelta(const DenseVector& delta, double scale);

  /// Averaging (Petuum*): adds a completed round's mean delta to the
  /// model.
  void ApplyRoundAverage(const DenseVector& mean_delta);

  /// Total bytes moved through the server tier so far.
  uint64_t total_bytes() const { return wire_.total(); }

  /// The run's wire totals so far: pull and push bytes, and retried
  /// requests (FaultStats::ps_retries).
  WireTally wire() const;

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

  /// Wire size of shard `s`'s model range (a ceil split of dim).
  uint64_t ShardRangeBytes(size_t s) const;

  /// Crashes shard `s` at virtual time `at`: it is down for
  /// kServerRestartSeconds, then re-reads its model range from the
  /// server checkpoint, which every applied update writes, so no
  /// update is lost.
  void HandleShardCrash(size_t s, SimTime at);

  SimCluster* sim_;
  PsConfig config_;
  DenseVector model_;
  /// Bumped by every change to model_, so equal versions mean equal
  /// models.
  uint64_t version_ = 0;
  /// The last pull snapshot and the model version it was taken at.
  std::shared_ptr<const DenseVector> pull_snapshot_;
  uint64_t pull_snapshot_version_ = 0;
  /// Cumulative pull/push bytes.
  WireTally wire_;
  /// Per-shard time until which the shard is unavailable (crash +
  /// restore in progress).
  std::vector<SimTime> shard_down_until_;
  /// Shards evicted by the failure detector; their ranges are served
  /// by the next alive shard.
  std::vector<bool> shard_left_;
};

/// Returns the virtual time at which a worker may start round `round`
/// under the SSP bound `staleness` (PsConfig::staleness), given each
/// worker's completion time per finished round. `finish_times[r][t]`
/// is worker r's completion time of round t; rounds not yet run are
/// absent.
SimTime ConsistencyStartTime(
    int staleness, size_t worker, int round,
    const std::vector<std::vector<SimTime>>& finish_times);

}  // namespace mllibstar

#endif  // MLLIBSTAR_PS_PARAMETER_SERVER_H_
