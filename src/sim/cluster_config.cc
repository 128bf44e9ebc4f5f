#include "sim/cluster_config.h"

#include <cmath>
#include <string>

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

/// A fault window must not end before it starts.
Status CheckWindow(const std::string& field, double from, double until) {
  if (from <= until) return Status::Ok();
  return Status::InvalidArgument(field + " must have from <= until, got " +
                                 FormatDouble(from) + " > " +
                                 FormatDouble(until));
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
  for (size_t i = 0; i < faults.degraded_links.size(); ++i) {
    const DegradeLinkWindow& w = faults.degraded_links[i];
    const std::string field =
        "faults.degraded_links[" + std::to_string(i) + "]";
    if (!FinitePositive(w.factor)) {
      return Invalid(field + ".factor", "finite and > 0", w.factor);
    }
    const Status window = CheckWindow(field, w.from, w.until);
    if (!window.ok()) return window;
  }
  for (size_t i = 0; i < faults.message_drops.size(); ++i) {
    const DropMessageWindow& w = faults.message_drops[i];
    const std::string field = "faults.message_drops[" + std::to_string(i) + "]";
    if (!(w.prob >= 0.0 && w.prob <= 1.0)) {
      return Invalid(field + ".prob", "in [0, 1]", w.prob);
    }
    const Status window = CheckWindow(field, w.from, w.until);
    if (!window.ok()) return window;
  }

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
  return Status::Ok();
}

}  // namespace mllibstar
