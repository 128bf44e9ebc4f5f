#include "ps/parameter_server.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/network.h"

namespace mllibstar {
namespace {

// Cores a parameter-server shard applies updates with (updates to
// disjoint model ranges apply in parallel on real servers).
constexpr size_t kServerCores = 16;

}  // namespace

PsContext::PsContext(SimCluster* sim, size_t dim, const PsConfig& config)
    : sim_(sim), config_(config), model_(dim) {
  MLLIBSTAR_CHECK_EQ(sim->num_servers(), config.num_shards);
  MLLIBSTAR_CHECK_GT(config.num_shards, 0u);
}

SimTime PsContext::TimeTransfer(SimNode* worker, uint64_t total_bytes,
                                bool is_pull, const std::string& detail) {
  const NetworkModel& net = sim_->network();
  const size_t shards = config_.num_shards;
  const uint64_t shard_bytes = (total_bytes + shards - 1) / shards;
  (is_pull ? wire_.pull : wire_.push) += total_bytes;
  const SimTime request_time = worker->clock;

  // Each shard serves its slice; a shard's link serializes requests
  // from different workers (tracked by the shard's clock).
  SimTime last_shard_done = 0.0;
  for (size_t s = 0; s < shards; ++s) {
    SimNode& shard = sim_->server(s);
    const SimTime start = std::max(request_time + net.latency(), shard.clock);
    const SimTime end =
        start + static_cast<double>(shard_bytes) / net.bandwidth();
    sim_->trace().Record(shard.name, start, end, ActivityKind::kCommunicate,
                         detail);
    shard.clock = end;
    if (!is_pull) {
      // Applying the slice to the shard's partition of the model;
      // disjoint ranges apply in parallel across the server's cores.
      const uint64_t apply_work = shard_bytes / 8 / kServerCores;
      sim_->ComputeExact(&shard, apply_work, ActivityKind::kAggregate,
                         detail + "/apply");
    }
    last_shard_done = std::max(last_shard_done, shard.clock);
  }

  // The worker's own link must move all the bytes too; whichever of
  // (slowest shard + latency) and (worker link time) is later wins.
  const SimTime worker_link_done =
      request_time + net.latency() +
      static_cast<double>(total_bytes) / net.bandwidth();
  const SimTime done = std::max(last_shard_done + net.latency(),
                                worker_link_done);
  sim_->trace().Record(worker->name, request_time, done,
                       ActivityKind::kCommunicate, detail);
  worker->clock = done;
  return done;
}

SimTime PsContext::TimePull(SimNode* worker) {
  return TimeTransfer(worker, NetworkModel::DenseBytes(dim()),
                      /*is_pull=*/true, "ps-pull");
}

SimTime PsContext::TimePush(SimNode* worker, uint64_t bytes) {
  return TimeTransfer(worker, bytes, /*is_pull=*/false, "ps-push");
}

std::shared_ptr<const DenseVector> PsContext::PullSnapshot() {
  if (pull_snapshot_ == nullptr || pull_snapshot_version_ != version_) {
    pull_snapshot_ = std::make_shared<const DenseVector>(model_);
    pull_snapshot_version_ = version_;
  }
  return pull_snapshot_;
}

void PsContext::ResetModel(DenseVector model) {
  MLLIBSTAR_CHECK_EQ(model.dim(), model_.dim());
  model_ = std::move(model);
  ++version_;
}

void PsContext::ApplyDelta(const DenseVector& delta, double scale) {
  MLLIBSTAR_CHECK_EQ(delta.dim(), model_.dim());
  model_.AddScaled(delta, scale);
  ++version_;
}

SimTime ConsistencyStartTime(
    int staleness, size_t worker, int round,
    const std::vector<std::vector<SimTime>>& finish_times) {
  // Own previous round always gates the next one.
  SimTime start = 0.0;
  if (round > 0 &&
      static_cast<size_t>(round - 1) < finish_times[worker].size()) {
    start = finish_times[worker][round - 1];
  }

  // Everyone's round `round - 1 - staleness` gates it too.
  const int barrier_round = round - 1 - staleness;
  if (barrier_round < 0) return start;
  for (const std::vector<SimTime>& times : finish_times) {
    if (static_cast<size_t>(barrier_round) < times.size()) {
      start = std::max(start, times[barrier_round]);
    }
  }
  return start;
}

}  // namespace mllibstar
