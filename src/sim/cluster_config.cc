#include "sim/cluster_config.h"

#include <cmath>

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

}  // namespace

Status ValidateClusterConfig(const ClusterConfig& config) {
  if (config.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be at least 1");
  }
  if (!FinitePositive(config.compute_speed)) {
    return Status::InvalidArgument("compute_speed must be finite and > 0, got " +
                                   FormatDouble(config.compute_speed));
  }
  if (!FinitePositive(config.bandwidth_bytes_per_sec)) {
    return Status::InvalidArgument(
        "bandwidth_bytes_per_sec must be finite and > 0, got " +
        FormatDouble(config.bandwidth_bytes_per_sec));
  }
  if (!(config.latency_sec >= 0.0)) {
    return Status::InvalidArgument("latency_sec must be >= 0, got " +
                                   FormatDouble(config.latency_sec));
  }
  if (!(config.speculation_quantile >= 0.0 &&
        config.speculation_quantile <= 1.0)) {
    return Status::InvalidArgument(
        "speculation_quantile must be in [0, 1], got " +
        FormatDouble(config.speculation_quantile));
  }
  return Status::Ok();
}

}  // namespace mllibstar
