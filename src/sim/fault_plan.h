#ifndef MLLIBSTAR_SIM_FAULT_PLAN_H_
#define MLLIBSTAR_SIM_FAULT_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "sim/trace.h"

namespace mllibstar {

/// Scripted loss of one executor: the worker dies at virtual time `at`
/// (while running whatever task covers that instant), is down for
/// FaultPlan::executor_restart_seconds, and its lost partition is
/// rebuilt via lineage on a surviving worker (at the lost task's work
/// again: Spark recomputes the narrow-dependency chain from the cached
/// parent). Fires at most once.
struct CrashWorkerEvent {
  size_t worker = 0;
  SimTime at = 0.0;
};

/// Seed of the dedicated fault RNG stream.
inline constexpr uint64_t kFaultSeed = 0x5eedfa17ULL;

/// Executor crashes, scripted or drawn from a dedicated fault RNG
/// stream (seeded by kFaultSeed, independent of the straggler-jitter
/// and task-failure streams, so adding faults never perturbs the
/// baseline schedule draws). Consumed by the Spark engine and the PS
/// trainer; every crash costs virtual time only — the host-side math
/// stays the deterministic ground truth.
struct FaultPlan {
  std::vector<CrashWorkerEvent> worker_crashes;

  /// Probability that any one worker task ends in an executor crash
  /// (the probabilistic sibling of `worker_crashes`).
  double worker_crash_prob = 0.0;

  /// Downtime before a crashed executor rejoins the cluster.
  double executor_restart_seconds = 5.0;
};

/// Counters of what the injector (and the recovery machinery fed by
/// it) actually did during a run.
struct FaultStats {
  uint64_t worker_crashes = 0;
  uint64_t lineage_recomputes = 0;
};

/// Consumes a FaultPlan during a simulated run. All draws come from
/// one dedicated stream in a deterministic order (the engines only
/// query it from their sequential virtual-time phases), so a fixed
/// seed plus a fixed plan reproduces byte-identical traces regardless
/// of host threading.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// True when `worker`, busy over [start, end), crashes: either a
  /// scripted event due in (or overdue before) that window, or a
  /// Bernoulli(worker_crash_prob) draw. Writes the crash instant to
  /// *crash_at. Scripted events fire once; the probabilistic draw is
  /// consumed on every call while worker_crash_prob > 0.
  bool WorkerCrashes(size_t worker, SimTime start, SimTime end,
                     SimTime* crash_at);

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  /// Checkpoint access to the fault stream cursor.
  Rng* mutable_rng() { return &rng_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  std::vector<bool> worker_fired_;
  FaultStats stats_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_FAULT_PLAN_H_
