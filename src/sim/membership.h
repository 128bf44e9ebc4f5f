#ifndef MLLIBSTAR_SIM_MEMBERSHIP_H_
#define MLLIBSTAR_SIM_MEMBERSHIP_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "sim/trace.h"

namespace mllibstar {

/// Scripted arrival of a worker that was not part of the initial
/// fleet (a ChurnPlan::initial_active slot): it announces itself at
/// virtual time `at` and is admitted at the next heartbeat tick.
struct JoinWorkerEvent {
  size_t worker = 0;
  SimTime at = 0.0;
};

/// Scripted permanent or temporary departure of an active worker: it
/// stops heartbeating at `at`, is suspected at the next heartbeat tick
/// and evicted once suspicion_timeout_sec of silence has accumulated.
struct LeaveWorkerEvent {
  size_t worker = 0;
  SimTime at = 0.0;
};

/// Scripted return of a previously departed worker (same slot, cold
/// local state — the engines rebuild it via lineage / a fresh pull).
struct RejoinWorkerEvent {
  size_t worker = 0;
  SimTime at = 0.0;
};

/// Scripted permanent departure of a parameter-server shard. Its model
/// range migrates to the next live shard, which then serves redirected
/// pulls/pushes for both ranges. Server churn is scripted-only.
struct LeaveServerEvent {
  size_t server = 0;
  SimTime at = 0.0;
};

/// Seed of the dedicated membership RNG stream.
inline constexpr uint64_t kMembershipSeed = 0x6a01c1b5e7ULL;

/// Elastic-membership script, the churn sibling of FaultPlan: scripted
/// join/leave/rejoin events plus Poisson arrival/departure rates, all
/// consumed through a dedicated membership RNG stream (so enabling
/// churn never shifts the straggler-jitter, task-failure, or
/// fault-plan draws). A crash (FaultPlan) is a transient outage the
/// same node recovers from; a leave is the failure detector evicting
/// the node from the fleet until an explicit (re)join.
struct ChurnPlan {
  std::vector<JoinWorkerEvent> joins;
  std::vector<LeaveWorkerEvent> leaves;
  std::vector<RejoinWorkerEvent> rejoins;
  std::vector<LeaveServerEvent> server_leaves;

  /// Poisson departure rate over the active fleet (events/sec of
  /// virtual time); victims are drawn from the membership stream.
  double leave_rate_per_sec = 0.0;
  /// Poisson arrival rate refilling empty slots (events/sec).
  double join_rate_per_sec = 0.0;

  /// Workers [0, initial_active) start active; the rest start pending
  /// (a joiner pool for scripted/Poisson joins). 0 = all active.
  size_t initial_active = 0;
  /// Poisson departures never shrink the active fleet below this
  /// (scripted leaves are taken literally).
  size_t min_active_workers = 1;

  /// Failure-detector cadence: nodes heartbeat every
  /// heartbeat_interval_sec; a node silent for suspicion_timeout_sec
  /// is evicted at the next tick. Joins are admitted at the next tick
  /// after they announce.
  double heartbeat_interval_sec = 0.5;
  double suspicion_timeout_sec = 2.0;

  bool empty() const {
    return joins.empty() && leaves.empty() && rejoins.empty() &&
           server_leaves.empty() && leave_rate_per_sec <= 0.0 &&
           join_rate_per_sec <= 0.0 && initial_active == 0;
  }
};

/// Counters of what the failure detector and the elastic machinery
/// actually did during a run.
struct MembershipStats {
  uint64_t joins = 0;
  uint64_t leaves = 0;
  uint64_t rejoins = 0;
  /// Suspicion windows opened (every detected leave passes through one).
  uint64_t suspicions = 0;
  uint64_t server_leaves = 0;
  /// Spark partitions reassigned to a different host (lineage rebuilds
  /// they triggered are charged by the engine).
  uint64_t partitions_migrated = 0;
  /// PS shard ranges migrated to a successor shard.
  uint64_t shard_migrations = 0;
  /// PS rounds completed with fewer than the full fleet contributing.
  uint64_t degraded_rounds = 0;
  /// Sum/count of (first completed task end − admission time) over
  /// joiners: how long a joiner takes to become productive.
  double catchup_latency_sum = 0.0;
  uint64_t catchup_count = 0;
  /// Smallest / largest active-worker count observed.
  uint64_t min_active = 0;
  uint64_t max_active = 0;
};

/// One detected membership transition, emitted by
/// MembershipTracker::AdvanceTo in detection order.
struct MembershipEvent {
  enum class Kind { kJoin, kLeave, kRejoin, kServerLeave };
  Kind kind = Kind::kJoin;
  size_t node = 0;       ///< worker index, or server index for kServerLeave
  SimTime at = 0.0;      ///< when the node actually (dis)appeared
  SimTime suspect_at = 0.0;  ///< leave only: first missed heartbeat tick
  /// When the failure detector acted on it: eviction tick for leaves,
  /// admission tick for joins. Transitions take effect here.
  SimTime detected_at = 0.0;
};

/// Virtual-time heartbeat/suspicion failure detector plus churn-event
/// source. Deterministic: scripted events and lazily drawn Poisson
/// arrivals merge in detection order, all randomness (victim choice,
/// inter-arrival gaps, churn-recovery jitters) comes from one
/// dedicated stream, and the full cursor state serializes to words for
/// checkpoint/resume. The tracker never touches clocks or numerics —
/// the engines consume its events and charge the costs.
class MembershipTracker {
 public:
  MembershipTracker(const ChurnPlan& plan, size_t num_workers,
                    size_t num_servers);

  const ChurnPlan& plan() const { return plan_; }
  /// False when the plan is empty: every query short-circuits and no
  /// stream is ever consumed, so churn-free runs are byte-identical to
  /// pre-membership builds.
  bool enabled() const { return enabled_; }

  /// True when worker `w` is currently part of the fleet (pending and
  /// departed workers are invisible to barriers and collectives).
  bool IsActive(size_t w) const { return status_[w] == Status::kActive; }
  /// True when worker `w` was active at some point already (drives the
  /// join-vs-rejoin distinction for Poisson arrivals).
  bool WasEverActive(size_t w) const { return ever_active_[w]; }
  bool IsServerLeft(size_t s) const { return server_left_[s]; }
  size_t num_active() const { return num_active_; }

  /// Fires every transition whose detection time is <= `now`, applies
  /// it to the tracked statuses, and returns them in detection order.
  /// Poisson arrivals are drawn lazily as `now` advances.
  std::vector<MembershipEvent> AdvanceTo(SimTime now);

  /// Earliest pending detection time (scripted or pre-drawn Poisson),
  /// +inf when nothing is pending — lets an idle event loop advance
  /// virtual time straight to the next membership change.
  SimTime NextEventTime() const;

  /// Lognormal(0, sigma) jitter for churn-recovery work (partition
  /// rebuilds on migration, joiner catch-up), drawn from the
  /// membership stream so recovery never perturbs the jitter/failure
  /// streams.
  double NextRecoveryJitter(double sigma);

  MembershipStats& stats() { return stats_; }
  const MembershipStats& stats() const { return stats_; }

  /// Full cursor state (statuses, fired flags, Poisson arrivals, RNG)
  /// as words, for the trainer checkpoints: a resumed run's failure
  /// detector continues exactly where it left off — already-fired
  /// events stay fired and the Poisson stream does not rewind.
  std::vector<uint64_t> SaveWords() const;
  void RestoreWords(const std::vector<uint64_t>& words);

 private:
  enum class Status : uint64_t { kPending = 0, kActive = 1, kLeft = 2 };

  /// First heartbeat tick strictly after `t`.
  SimTime NextTick(SimTime t) const;
  /// Detection tick of a departure at `t` (>= first suspect tick).
  SimTime DetectionTick(SimTime t) const;
  void RedrawNextPoissonLeave(SimTime from);
  void RedrawNextPoissonJoin(SimTime from);
  void ApplyEvent(const MembershipEvent& ev);

  ChurnPlan plan_;
  bool enabled_ = false;
  Rng rng_;
  std::vector<Status> status_;
  std::vector<bool> ever_active_;
  std::vector<bool> server_left_;
  size_t num_active_ = 0;
  std::vector<bool> join_fired_;
  std::vector<bool> leave_fired_;
  std::vector<bool> rejoin_fired_;
  std::vector<bool> server_leave_fired_;
  /// Pre-drawn absolute times of the next Poisson departure/arrival
  /// (+inf when the rate is zero); victims are picked at fire time.
  SimTime next_poisson_leave_ = std::numeric_limits<double>::infinity();
  SimTime next_poisson_join_ = std::numeric_limits<double>::infinity();
  /// Poisson arrivals already drawn but not yet detected (a leave sits
  /// in its suspicion window here). Serialized with the tracker.
  std::vector<MembershipEvent> poisson_pending_;
  MembershipStats stats_;
};

/// Records one membership transition of `node` (a worker or a PS
/// shard) as its trace bars: leave then suspected for a departure,
/// join or rejoin for an admission. The engines count the transition
/// itself in MembershipStats.
void RecordMembershipTransition(TraceLog* trace, const MembershipEvent& ev,
                                const std::string& node);

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_MEMBERSHIP_H_
