#ifndef MLLIBSTAR_SIM_CLUSTER_CONFIG_H_
#define MLLIBSTAR_SIM_CLUSTER_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "sim/fault_plan.h"
#include "sim/membership.h"

namespace mllibstar {

/// Static description of a simulated cluster.
///
/// `compute_speed` is in "work units" per second, where one unit is
/// one sparse coordinate touched (core::ComputeStats::nnz_processed).
/// The presets calibrate it so that compute and communication are on
/// the same footing as in the paper's gantt charts at the synthetic
/// datasets' 1/1000 scale.
struct ClusterConfig {
  size_t num_workers = 8;
  size_t num_servers = 0;      ///< parameter-server shards (PS runs only)
  double latency_sec = 1e-3;   ///< per-message network latency
  double bandwidth_bytes_per_sec = 125e6 * 1e-3;  ///< per-link (see presets)
  double compute_speed = 5e6;  ///< work units per second per node
  double straggler_sigma = 0.05;  ///< lognormal sigma of per-task jitter
  /// Probability that one worker task fails and is re-executed from
  /// its cached input (Spark's lineage recovery). The retry costs the
  /// task's work again plus task_restart_seconds of scheduling delay.
  double task_failure_prob = 0.0;
  double task_restart_seconds = 1.0;
  uint64_t seed = 7;

  /// Scripted and probabilistic faults (executor/shard crashes, link
  /// degradation, message drops). Empty by default — fault-free runs
  /// consume nothing from the fault RNG stream.
  FaultPlan faults;

  /// Elastic membership: scripted/Poisson join, leave, and rejoin
  /// events consumed by a heartbeat/suspicion failure detector. Empty
  /// by default — churn-free runs consume nothing from the membership
  /// RNG stream and are bit-identical to fixed-fleet runs.
  ChurnPlan churn;

  /// The paper's Cluster 1: 9 nodes (1 driver + 8 executors) on a
  /// 1 Gbps network. Bandwidth is scaled by the same 1/1000 factor as
  /// the synthetic datasets so that bytes-per-model / bandwidth keeps
  /// the paper's proportions; compute speed is calibrated to match.
  static ClusterConfig Cluster1(size_t workers = 8);

  /// The paper's Cluster 2: large, 10 Gbps, heterogeneous machines
  /// (high per-task variance — the straggler effect of Figure 6).
  static ClusterConfig Cluster2(size_t workers);
};

/// Rejects a cluster no simulation can run:
///   - no workers;
///   - a compute speed or link bandwidth that is not finite and
///     positive (every duration divides by them);
///   - a negative latency;
///   - a straggler sigma, task restart or executor restart time that is
///     NaN, infinite or negative;
///   - a task failure probability outside [0, 1) (at 1 every retry
///     fails again, and the retry loop never ends);
///   - a crash or drop probability outside [0, 1];
///   - a link-degradation factor that is not finite and positive, or a
///     fault window with from > until;
///   - churn rates that are not finite and non-negative, a heartbeat
///     interval that is not positive, or a negative suspicion timeout.
/// SimCluster CHECKs it on construction, before it builds anything
/// from the fault and churn plans.
Status ValidateClusterConfig(const ClusterConfig& config);

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_CLUSTER_CONFIG_H_
