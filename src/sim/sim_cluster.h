#ifndef MLLIBSTAR_SIM_SIM_CLUSTER_H_
#define MLLIBSTAR_SIM_SIM_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "sim/cluster_config.h"
#include "sim/fault_plan.h"
#include "sim/membership.h"
#include "sim/network.h"
#include "sim/trace.h"

namespace mllibstar {

/// One simulated machine: a name, a compute speed, and a virtual
/// clock. Clocks advance only through SimCluster operations.
struct SimNode {
  std::string name;
  double compute_speed = 1.0;  ///< work units per second
  SimTime clock = 0.0;
};

/// A simulated cluster: a driver, `num_workers` workers, and
/// optionally `num_servers` parameter-server shards, all sharing a
/// network model and a trace log.
///
/// All real computation (gradients, model updates) runs on the host;
/// the cluster only accounts for *when* it would have happened. That
/// split is what lets a 128-worker experiment run deterministically in
/// one host thread: virtual time is a pure function of the cost model.
class SimCluster {
 public:
  explicit SimCluster(const ClusterConfig& config);

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  const NetworkModel& network() const { return network_; }
  TraceLog& trace() { return trace_; }
  const TraceLog& trace() const { return trace_; }

  size_t num_workers() const { return workers_.size(); }
  size_t num_servers() const { return servers_.size(); }

  SimNode& driver() { return driver_; }
  SimNode& worker(size_t i) { return workers_[i]; }
  SimNode& server(size_t i) { return servers_[i]; }
  const SimNode& worker(size_t i) const { return workers_[i]; }

  /// Charges `work_units` of compute to `node` (time = units / speed,
  /// times a per-task straggler jitter) and records a trace bar.
  /// Returns the node's new clock.
  SimTime Compute(SimNode* node, uint64_t work_units,
                  const std::string& detail);

  /// Charges `work_units` with an explicitly supplied `jitter` factor.
  /// This is the post-hoc charge API for host-parallel execution: the
  /// engine draws the jitter from the shared stream in fixed worker
  /// order *before* dispatching the real computation to a thread pool,
  /// then applies the charge here once the work units are known — so
  /// the jitter stream, the clocks, and the trace are identical to the
  /// sequential schedule.
  SimTime ChargeCompute(SimNode* node, uint64_t work_units, double jitter,
                        const std::string& detail);

  /// Charges compute without jitter (driver-side bookkeeping work).
  SimTime ComputeExact(SimNode* node, uint64_t work_units,
                       ActivityKind kind, const std::string& detail);

  /// Latest clock among the *participating* workers (pending joiners
  /// and departed workers are invisible to barriers; with churn
  /// disabled every worker participates).
  SimTime MaxWorkerClock() const;

  /// Advances every participating worker clock to `time`, tracing the
  /// gap as wait.
  void SyncWorkersTo(SimTime time);

  /// Advances every participating worker and the driver to the max
  /// worker clock (a BSP barrier) and returns that time.
  SimTime Barrier();

  /// Global simulated time: max clock over all nodes.
  SimTime Now() const;

  /// Multiplicative straggler jitter for one task, drawn from
  /// lognormal(0, sigma). Deterministic given the config seed.
  double NextJitter();

  /// Draws whether the next worker task fails (and must be retried).
  /// Always false when task_failure_prob is 0; deterministic given the
  /// config seed. Drawn from a dedicated failure stream so that the
  /// jitter sequence is identical with failures on or off.
  bool NextTaskFailure();

  /// Jitter for a retried or recomputed task, drawn from
  /// the failure stream — recovery never perturbs the primary
  /// schedule's jitter sequence.
  double NextRetryJitter();

  /// The fault injector consuming config().faults.
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

  /// The failure detector / churn-event source consuming
  /// config().churn.
  MembershipTracker& membership() { return membership_; }
  const MembershipTracker& membership() const { return membership_; }

  /// Slowdown factor for a transfer starting at `at` (degraded-link
  /// fault windows; 1.0 in fault-free runs).
  double LinkFactor(SimTime at) const { return faults_.LinkFactor(at); }

  /// Snapshot / restore of every virtual clock (driver, workers,
  /// servers, in that order) for checkpoint/resume.
  std::vector<double> SaveClocks() const;
  void RestoreClocks(const std::vector<double>& clocks);

  /// Checkpoint access to the shared RNG cursors.
  Rng* mutable_jitter_rng() { return &jitter_rng_; }
  Rng* mutable_failure_rng() { return &failure_rng_; }

 private:
  ClusterConfig config_;
  NetworkModel network_;
  TraceLog trace_;
  Rng jitter_rng_;
  Rng failure_rng_;
  FaultInjector faults_;
  MembershipTracker membership_;
  SimNode driver_;
  std::vector<SimNode> workers_;
  std::vector<SimNode> servers_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_SIM_CLUSTER_H_
