#include "sim/sim_cluster.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace mllibstar {
namespace {

/// `config` once ValidateClusterConfig accepts it, so that a bad fault
/// or churn plan fails with the validation message before the members
/// built from it exist.
const ClusterConfig& Checked(const ClusterConfig& config) {
  MLLIBSTAR_CHECK_OK(ValidateClusterConfig(config));
  return config;
}

}  // namespace

SimCluster::SimCluster(const ClusterConfig& config)
    : config_(Checked(config)),
      network_(config.latency_sec, config.bandwidth_bytes_per_sec),
      jitter_rng_(config.seed),
      // Failures live on their own stream so that enabling them leaves
      // the per-task jitter sequence untouched (and vice versa).
      failure_rng_(config.seed ^ 0x0fa111e5c0feeULL),
      faults_(config.faults),
      membership_(config.churn, config.num_workers, config.num_servers) {
  driver_.name = "driver";
  driver_.compute_speed = config.compute_speed;
  workers_.resize(config.num_workers);
  for (size_t i = 0; i < config.num_workers; ++i) {
    workers_[i].name = "executor" + std::to_string(i + 1);
    workers_[i].compute_speed = config.compute_speed;
  }
  servers_.resize(config.num_servers);
  for (size_t i = 0; i < config.num_servers; ++i) {
    servers_[i].name = "server" + std::to_string(i + 1);
    servers_[i].compute_speed = config.compute_speed;
  }
}

SimTime SimCluster::Compute(SimNode* node, uint64_t work_units,
                            const std::string& detail) {
  return ChargeCompute(node, work_units, NextJitter(), detail);
}

SimTime SimCluster::ChargeCompute(SimNode* node, uint64_t work_units,
                                  double jitter,
                                  const std::string& detail) {
  const double seconds =
      static_cast<double>(work_units) / node->compute_speed * jitter;
  const SimTime start = node->clock;
  node->clock += seconds;
  trace_.Record(node->name, start, node->clock, ActivityKind::kCompute,
                detail);
  return node->clock;
}

SimTime SimCluster::ComputeExact(SimNode* node, uint64_t work_units,
                                 ActivityKind kind,
                                 const std::string& detail) {
  const double seconds =
      static_cast<double>(work_units) / node->compute_speed;
  const SimTime start = node->clock;
  node->clock += seconds;
  trace_.Record(node->name, start, node->clock, kind, detail);
  return node->clock;
}

SimTime SimCluster::MaxWorkerClock() const {
  SimTime latest = 0.0;
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!membership_.IsActive(i)) continue;
    latest = std::max(latest, workers_[i].clock);
  }
  return latest;
}

void SimCluster::SyncWorkersTo(SimTime time) {
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (!membership_.IsActive(i)) continue;
    SimNode& w = workers_[i];
    if (w.clock < time) {
      trace_.Record(w.name, w.clock, time, ActivityKind::kWait, "barrier");
      w.clock = time;
    }
  }
}

SimTime SimCluster::Barrier() {
  const SimTime latest = std::max(MaxWorkerClock(), driver_.clock);
  SyncWorkersTo(latest);
  if (driver_.clock < latest) driver_.clock = latest;
  return latest;
}

SimTime SimCluster::Now() const {
  SimTime latest = std::max(MaxWorkerClock(), driver_.clock);
  for (const SimNode& s : servers_) latest = std::max(latest, s.clock);
  return latest;
}

double SimCluster::NextJitter() {
  if (config_.straggler_sigma <= 0.0) return 1.0;
  return std::exp(config_.straggler_sigma * jitter_rng_.NextGaussian());
}

bool SimCluster::NextTaskFailure() {
  if (config_.task_failure_prob <= 0.0) return false;
  return failure_rng_.NextBool(config_.task_failure_prob);
}

double SimCluster::NextRetryJitter() {
  if (config_.straggler_sigma <= 0.0) return 1.0;
  return std::exp(config_.straggler_sigma * failure_rng_.NextGaussian());
}

std::vector<double> SimCluster::SaveClocks() const {
  std::vector<double> clocks;
  clocks.reserve(1 + workers_.size() + servers_.size());
  clocks.push_back(driver_.clock);
  for (const SimNode& w : workers_) clocks.push_back(w.clock);
  for (const SimNode& s : servers_) clocks.push_back(s.clock);
  return clocks;
}

void SimCluster::RestoreClocks(const std::vector<double>& clocks) {
  MLLIBSTAR_CHECK_EQ(clocks.size(), 1 + workers_.size() + servers_.size());
  size_t i = 0;
  driver_.clock = clocks[i++];
  for (SimNode& w : workers_) w.clock = clocks[i++];
  for (SimNode& s : servers_) s.clock = clocks[i++];
}

}  // namespace mllibstar
