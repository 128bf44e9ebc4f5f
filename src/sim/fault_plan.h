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

/// Scripted loss of one parameter-server shard: the shard dies at `at`,
/// is down for kServerRestartSeconds, and restores its model range from
/// the latest server-side checkpoint. Fires once.
struct CrashServerEvent {
  size_t server = 0;
  SimTime at = 0.0;
};

/// Network degradation window: every transfer that *starts* inside
/// [from, until) takes `factor` times as long (a congested or
/// flapping link). Overlapping windows multiply.
struct DegradeLinkWindow {
  double factor = 1.0;
  SimTime from = 0.0;
  SimTime until = 0.0;
};

/// Message-loss window: a PS request sent inside [from, until) is
/// dropped with probability `prob` (drawn from the fault stream) and
/// must be retried after a timeout.
struct DropMessageWindow {
  double prob = 0.0;
  SimTime from = 0.0;
  SimTime until = 0.0;
};

/// Seed of the dedicated fault RNG stream.
inline constexpr uint64_t kFaultSeed = 0x5eedfa17ULL;
/// Downtime before a crashed PS shard is back, excluding the
/// checkpoint-restore transfer it then pays.
inline constexpr double kServerRestartSeconds = 5.0;

/// A deterministic script of cluster faults, plus probabilistic
/// executor crashes drawn from a dedicated fault RNG stream (seeded by
/// kFaultSeed, independent of the straggler-jitter and task-failure
/// streams, so adding faults never perturbs the baseline schedule
/// draws). Consumed by SimCluster / SparkCluster / PsContext; every
/// fault costs virtual time only — the host-side math stays the
/// deterministic ground truth.
struct FaultPlan {
  std::vector<CrashWorkerEvent> worker_crashes;
  std::vector<CrashServerEvent> server_crashes;
  std::vector<DegradeLinkWindow> degraded_links;
  std::vector<DropMessageWindow> message_drops;

  /// Probability that any one worker task ends in an executor crash
  /// (the probabilistic sibling of `worker_crashes`).
  double worker_crash_prob = 0.0;

  /// Downtime before a crashed executor rejoins the cluster.
  double executor_restart_seconds = 5.0;

  bool empty() const {
    return worker_crashes.empty() && server_crashes.empty() &&
           degraded_links.empty() && message_drops.empty() &&
           worker_crash_prob <= 0.0;
  }
};

/// Counters of what the injector (and the recovery machinery fed by
/// it) actually did during a run.
struct FaultStats {
  uint64_t worker_crashes = 0;
  uint64_t server_crashes = 0;
  uint64_t lineage_recomputes = 0;
  uint64_t messages_dropped = 0;
  uint64_t ps_retries = 0;  ///< pull/push attempts that were retried
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

  /// True when a scripted crash of `server` is due at or before `now`
  /// and has not fired yet. Writes the scripted instant to *crash_at.
  bool ServerCrashDue(size_t server, SimTime now, SimTime* crash_at);

  /// Product of the factors of every degradation window containing
  /// `at` (1.0 outside all windows).
  double LinkFactor(SimTime at) const;

  /// True when a message sent at `at` falls in a drop window and the
  /// Bernoulli(prob) draw says it is lost. Consumes a draw only inside
  /// a window.
  bool NextMessageDrop(SimTime at);

  /// Uniform [0, 1) used to jitter retry backoff delays.
  double NextBackoffJitter();

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  /// Checkpoint access to the fault stream cursor.
  Rng* mutable_rng() { return &rng_; }

 private:
  FaultPlan plan_;
  Rng rng_;
  std::vector<bool> worker_fired_;
  std::vector<bool> server_fired_;
  FaultStats stats_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_FAULT_PLAN_H_
