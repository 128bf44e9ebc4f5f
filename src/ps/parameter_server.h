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

  /// Charges the time for `worker` to pull the full dense model.
  /// Returns the completion time and advances the worker and shard
  /// clocks (the transfer rule is TimeTransfer's).
  SimTime TimePull(SimNode* worker);

  /// Charges the time for `worker` to push an update of `bytes`
  /// (sparse updates are cheaper — real PS clients ship index/value
  /// pairs, NetworkModel::SparseBytes), including the shards' apply
  /// work. Returns the completion time.
  SimTime TimePush(SimNode* worker, uint64_t bytes);

  /// Replaces the model (trainer resume).
  void ResetModel(DenseVector model);

  /// Adds `scale` times `delta` to the global model immediately:
  /// Petuum and Angel per push, Petuum* once per round with the
  /// round's mean delta at scale 1.
  void ApplyDelta(const DenseVector& delta, double scale);

  /// Total bytes moved through the server tier so far.
  uint64_t total_bytes() const { return wire_.total(); }

  /// The run's wire totals so far: pull and push bytes.
  const WireTally& wire() const { return wire_; }

 private:
  /// One request of `total_bytes` from `worker`, sent at its clock t.
  /// With latency L, bandwidth B and s shards, each shard serves a
  /// ceil(total_bytes / s) slice from max(t + L, its clock) for
  /// slice / B, and a push then charges the slice's apply work to the
  /// shard. The request is done at max(latest shard end + L,
  /// t + L + total_bytes / B): the worker's own link is the floor.
  SimTime TimeTransfer(SimNode* worker, uint64_t total_bytes, bool is_pull,
                       const std::string& detail);

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
