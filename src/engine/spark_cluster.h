#ifndef MLLIBSTAR_ENGINE_SPARK_CLUSTER_H_
#define MLLIBSTAR_ENGINE_SPARK_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/round_profile.h"
#include "sim/cluster_config.h"
#include "sim/sim_cluster.h"
#include "sim/trace.h"

namespace mllibstar {

/// What one simulated worker task produced, returned by the task
/// callback instead of being accumulated into captured shared state
/// (which would race once tasks run host-parallel). The engine hands
/// the full per-worker vector back to the trainer, which folds the
/// fields it cares about in fixed worker order.
struct WorkerStats {
  uint64_t work_units = 0;    ///< virtual-time charge (nnz touched)
  uint64_t batch_size = 0;    ///< examples the task consumed
  uint64_t model_updates = 0; ///< local model updates it applied
  double loss_sum = 0.0;      ///< partial loss (full-pass oracles)
};

/// Resolves a host-thread count: 0 means "all hardware threads",
/// anything else is taken literally (minimum 1).
size_t ResolveHostThreads(size_t host_threads);

/// A Spark-like BSP cluster: one driver plus executors, with the
/// primitives MLlib's MGD uses (per-stage worker tasks, treeAggregate,
/// broadcast) and the shuffle from which MLlib* composes
/// Reduce-Scatter and AllGather (paper Figure 2b).
///
/// The engine only accounts virtual time and traces activity; the
/// actual gradient/model arithmetic runs host-side in the trainers.
/// This mirrors the paper's implementation strategy: MLlib* changes
/// no Spark internals, it only composes existing primitives.
///
/// `host_threads` controls how many *host* threads execute the
/// embarrassingly parallel worker callbacks (1 = sequential; 0 = all
/// hardware threads). It cannot change any simulated result: callbacks
/// write only their own slot, and every shared-stream draw (jitter,
/// task failures) and clock update happens afterwards on the calling
/// thread in fixed worker order. See "Host parallelism vs. virtual
/// time" in docs/ARCHITECTURE.md.
class SparkCluster {
 public:
  explicit SparkCluster(const ClusterConfig& config, size_t host_threads = 1);

  size_t num_workers() const { return sim_.num_workers(); }
  SimCluster& sim() { return sim_; }
  TraceLog& trace() { return sim_.trace(); }
  const NetworkModel& network() const { return sim_.network(); }
  size_t host_threads() const { return host_threads_; }

  /// Marks the start of a new Spark stage (the red vertical lines in
  /// Figure 3) at the current barrier time. Stage boundaries are where
  /// the driver acts on the failure detector: detected leaves migrate
  /// the departed executor's partitions onto survivors (lineage
  /// rebuild charged on first touch), admitted joiners get partitions
  /// rebalanced onto them. The stage opens a training round: its
  /// committed tasks and wire traffic accumulate until EndStage.
  void BeginStage(const std::string& label);

  /// Closes the stage BeginStage opened as round `round` of `system`:
  /// barriers driver and workers, appends the round's RoundProfile
  /// (straggler spread, compute/wait/comm split, wire traffic) to
  /// rounds(), and returns the barrier time.
  SimTime EndStage(const std::string& system, int round);

  /// One profile per closed round, in order.
  std::vector<RoundProfile>& rounds() { return rounds_; }

  /// Runs `fn(worker_index)` for every worker — host-parallel when the
  /// cluster was built with host_threads > 1. `fn` performs the real
  /// computation and returns its WorkerStats; the engine charges
  /// stats.work_units to each worker's virtual clock (with straggler
  /// jitter and task-failure retries) sequentially in worker order
  /// after all callbacks finish, then returns the collected stats.
  ///
  /// `fn` must only touch per-worker state (its own gradient slot, its
  /// own Rng); it must not draw from the cluster's jitter stream.
  std::vector<WorkerStats> RunOnWorkers(
      const std::string& detail,
      const std::function<WorkerStats(size_t)>& fn);

  /// Charges `work_units` to the driver (model update bookkeeping).
  void RunOnDriver(const std::string& detail, uint64_t work_units);

  /// Every worker sends `bytes` toward the driver through a two-level
  /// tree with `num_aggregators` intermediate executors (MLlib's
  /// treeAggregate). Aggregators each charge `merge_work_units` of
  /// combining work. Ends with the driver holding the aggregate.
  void TreeAggregate(uint64_t bytes, size_t num_aggregators,
                     uint64_t merge_work_units, const std::string& detail);

  /// Driver sends `bytes` to every worker; its outbound link
  /// serializes the copies (the driver bottleneck).
  void Broadcast(uint64_t bytes, const std::string& detail);

  /// All-to-all shuffle: every worker sends `bytes_per_peer` to each
  /// of the other k-1 workers (full-duplex links, so inbound and
  /// outbound overlap). Both MLlib* phases use this.
  void ShuffleAllToAll(uint64_t bytes_per_peer, const std::string& detail);

  /// BSP barrier across driver + workers; returns the barrier time.
  SimTime Barrier();

  /// Current global simulated time.
  SimTime Now() const { return sim_.Now(); }

  /// Total bytes moved by all collectives so far (the paper's "2km
  /// per communication step" accounting).
  uint64_t total_bytes() const { return wire_.total(); }

  /// Which executor currently hosts partition r. Identity when the
  /// fleet is full and no churn has happened.
  size_t PartitionHost(size_t r) const { return assign_[r]; }

  /// The failure detector / churn state (lives in the SimCluster).
  const MembershipTracker& membership() const { return sim_.membership(); }

  /// The full elastic state — membership tracker cursor plus the
  /// engine's partition hosting, rebuild flags and joiner catch-up
  /// windows — as checkpoint words. Restoring makes a resumed run
  /// replay the remaining churn bit-identically, even mid-suspicion
  /// or with migrations pending their first lineage rebuild.
  std::vector<uint64_t> SaveElasticWords() const;
  void RestoreElasticWords(const std::vector<uint64_t>& words);

 private:
  /// Fires every membership transition detected by `at` and applies
  /// it: leaves migrate partitions to survivors, joins rebalance
  /// partitions onto the joiner. Records each transition
  /// (RecordMembershipTransition).
  void ApplyChurn(SimTime at);

  /// Indices of currently participating workers, ascending.
  std::vector<size_t> ActiveWorkers() const;

  SimCluster sim_;
  /// Cumulative bytes by path and task retries.
  WireTally wire_;
  size_t host_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  ///< created when host_threads_ > 1

  /// Partition -> hosting executor. The partition count is fixed at
  /// num_workers for the whole run (so the host-side math never
  /// changes under churn); only the hosting changes.
  std::vector<size_t> assign_;
  /// Partition must be lineage-rebuilt on its (new) host before its
  /// next task (set when a partition migrates).
  std::vector<bool> needs_rebuild_;
  /// Per-executor joiner catch-up tracking: admission time, and
  /// whether the first post-admission task end is still pending.
  std::vector<SimTime> admit_time_;
  std::vector<bool> pending_catchup_;

  /// The open round: its start time and wait split, the committed task
  /// durations and the span their batches covered so far, and wire_
  /// at its start.
  RoundProfile round_;
  std::vector<double> round_durations_;
  double round_covered_ = 0.0;
  WireTally round_wire_start_;
  std::vector<RoundProfile> rounds_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_ENGINE_SPARK_CLUSTER_H_
