#include "sim/cluster_config.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/strings.h"

namespace mllibstar {

// Calibration: the synthetic datasets shrink the paper's data by 1000x
// in both rows and features. Scaling link bandwidth and compute speed
// by the same factor keeps every transfer-time and compute-time ratio
// identical to the full-scale setup, so simulated seconds are directly
// comparable to the paper's reported seconds.

ClusterConfig ClusterConfig::Cluster1(size_t workers) {
  ClusterConfig config;
  config.num_workers = workers;
  config.num_servers = 0;
  config.latency_sec = 1e-3;
  // 1 Gbps = 125e6 B/s, scaled by 1e-3.
  config.bandwidth_bytes_per_sec = 125e3;
  // ~2e7 sparse coordinates/sec/node full-scale, scaled by 1e-3.
  config.compute_speed = 2e4;
  config.straggler_sigma = 0.05;
  config.seed = 7;
  return config;
}

ClusterConfig ClusterConfig::Cluster2(size_t workers) {
  ClusterConfig config;
  config.num_workers = workers;
  config.num_servers = 0;
  config.latency_sec = 5e-4;
  // 10 Gbps scaled by 1e-3.
  config.bandwidth_bytes_per_sec = 1250e3;
  config.compute_speed = 2e4;
  // "computational power of individual machines exhibits a high
  // variance" (paper Section V-C) — heavy per-task jitter.
  config.straggler_sigma = 0.35;
  config.seed = 11;
  return config;
}

namespace {

bool FinitePositive(double x) { return std::isfinite(x) && x > 0.0; }
bool FiniteNonNegative(double x) { return std::isfinite(x) && x >= 0.0; }

Status Invalid(const std::string& field, const char* rule, double value) {
  return Status::InvalidArgument(field + " must be " + rule + ", got " +
                                 FormatDouble(value));
}

/// Every event in `events` (the list called `name`, e.g. "churn.joins")
/// must name a worker slot of the cluster and fire at a finite time
/// >= 0: an event for a slot past the fleet never applies, and a NaN
/// or infinite time is no instant of the virtual clock.
template <typename Event>
Status CheckScripted(const std::vector<Event>& events, const char* name,
                     size_t num_workers) {
  for (size_t i = 0; i < events.size(); ++i) {
    const std::string field =
        std::string(name) + "[" + std::to_string(i) + "]";
    if (events[i].worker >= num_workers) {
      return Status::InvalidArgument(
          field + ".worker must be < num_workers (" +
          std::to_string(num_workers) + "), got " +
          std::to_string(events[i].worker));
    }
    if (!FiniteNonNegative(events[i].at)) {
      return Invalid(field + ".at", "finite and >= 0", events[i].at);
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateClusterConfig(const ClusterConfig& config) {
  if (config.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be at least 1");
  }
  if (!FinitePositive(config.compute_speed)) {
    return Invalid("compute_speed", "finite and > 0", config.compute_speed);
  }
  if (!FinitePositive(config.bandwidth_bytes_per_sec)) {
    return Invalid("bandwidth_bytes_per_sec", "finite and > 0",
                   config.bandwidth_bytes_per_sec);
  }
  if (!(config.latency_sec >= 0.0)) {
    return Invalid("latency_sec", ">= 0", config.latency_sec);
  }
  if (!FiniteNonNegative(config.straggler_sigma)) {
    return Invalid("straggler_sigma", "finite and >= 0",
                   config.straggler_sigma);
  }
  if (!(config.task_failure_prob >= 0.0 && config.task_failure_prob < 1.0)) {
    return Invalid("task_failure_prob", "in [0, 1)", config.task_failure_prob);
  }
  if (!FiniteNonNegative(config.task_restart_seconds)) {
    return Invalid("task_restart_seconds", "finite and >= 0",
                   config.task_restart_seconds);
  }

  const FaultPlan& faults = config.faults;
  if (!(faults.worker_crash_prob >= 0.0 && faults.worker_crash_prob <= 1.0)) {
    return Invalid("faults.worker_crash_prob", "in [0, 1]",
                   faults.worker_crash_prob);
  }
  if (!FiniteNonNegative(faults.executor_restart_seconds)) {
    return Invalid("faults.executor_restart_seconds", "finite and >= 0",
                   faults.executor_restart_seconds);
  }
  const Status crashes = CheckScripted(
      faults.worker_crashes, "faults.worker_crashes", config.num_workers);
  if (!crashes.ok()) return crashes;

  const ChurnPlan& churn = config.churn;
  if (!FiniteNonNegative(churn.leave_rate_per_sec)) {
    return Invalid("churn.leave_rate_per_sec", "finite and >= 0",
                   churn.leave_rate_per_sec);
  }
  if (!FiniteNonNegative(churn.join_rate_per_sec)) {
    return Invalid("churn.join_rate_per_sec", "finite and >= 0",
                   churn.join_rate_per_sec);
  }
  if (!(churn.heartbeat_interval_sec > 0.0)) {
    return Invalid("churn.heartbeat_interval_sec", "> 0",
                   churn.heartbeat_interval_sec);
  }
  if (!(churn.suspicion_timeout_sec >= 0.0)) {
    return Invalid("churn.suspicion_timeout_sec", ">= 0",
                   churn.suspicion_timeout_sec);
  }
  if (churn.initial_active > config.num_workers) {
    return Status::InvalidArgument(
        "churn.initial_active must be <= num_workers (" +
        std::to_string(config.num_workers) + "), got " +
        std::to_string(churn.initial_active));
  }
  const Status joins =
      CheckScripted(churn.joins, "churn.joins", config.num_workers);
  if (!joins.ok()) return joins;
  const Status leaves =
      CheckScripted(churn.leaves, "churn.leaves", config.num_workers);
  if (!leaves.ok()) return leaves;
  return CheckScripted(churn.rejoins, "churn.rejoins", config.num_workers);
}

}  // namespace mllibstar
