#ifndef MLLIBSTAR_OBS_ROUND_PROFILE_H_
#define MLLIBSTAR_OBS_ROUND_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mllibstar {

/// What crossed the wire: bytes by path, and retried tasks or
/// requests. A run's Spark engine or PS context keeps the cumulative
/// totals; a round holds their difference across it.
struct WireTally {
  uint64_t broadcast = 0;
  uint64_t tree_aggregate = 0;
  uint64_t shuffle = 0;
  uint64_t pull = 0;
  uint64_t push = 0;
  uint64_t retries = 0;

  /// Bytes over every path.
  uint64_t total() const {
    return broadcast + tree_aggregate + shuffle + pull + push;
  }

  /// What accumulated since `start`, an earlier reading of the same
  /// totals.
  WireTally Since(const WireTally& start) const;

  /// Adds `other`'s counts to these.
  WireTally& operator+=(const WireTally& other);
};

/// One training round's breakdown: where virtual time went, how spread
/// the stragglers were, what crossed the wire. The code that closes a
/// round builds it into TrainResult::rounds: the Spark engine at the
/// stage's closing barrier, the PS trainer at round-frontier
/// completion. Spark rounds carry the compute/wait/comm split; PS
/// rounds instead carry staleness occupancy — their compute overlaps
/// communication by design, so the split is left zero there.
struct RoundProfile {
  std::string system;
  int round = 0;
  double sim_start = 0.0;
  double sim_end = 0.0;
  uint64_t tasks = 0;
  // Straggler spread over committed task durations (virtual seconds).
  double task_p50 = 0.0;
  double task_p95 = 0.0;
  double task_max = 0.0;
  // Virtual-time attribution: compute = sum of task durations, wait =
  // time finished tasks idled for the round's slowest task, comm =
  // round span not covered by any task batch (broadcast, aggregate,
  // driver work).
  double compute_sec = 0.0;
  double wait_sec = 0.0;
  double comm_sec = 0.0;
  WireTally wire;  ///< this round's share of the run's wire totals
  // SSP staleness occupancy (PS rounds): how stale the pushes applied
  // during this round were, in rounds behind the leader.
  uint64_t staleness_samples = 0;
  double staleness_mean = 0.0;
  double staleness_max = 0.0;
};

/// Sets the profile's task count and straggler spread from the
/// round's task durations, which it sorts in place: p50 and p95 are
/// the sorted values at index floor(q * (n - 1)), max the largest (all
/// 0 for no tasks). Callers reuse one buffer across rounds, so the
/// spread costs no allocation per round.
void SetTaskSpread(std::vector<double>* durations, RoundProfile* profile);

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_ROUND_PROFILE_H_
