#include "ps/parameter_server.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/network.h"

namespace mllibstar {
namespace {

// Cores a parameter-server shard applies updates with (updates to
// disjoint model ranges apply in parallel on real servers).
constexpr size_t kServerCores = 16;

}  // namespace

PsContext::PsContext(SimCluster* sim, size_t dim, const PsConfig& config)
    : sim_(sim), config_(config), model_(dim),
      shard_down_until_(config.num_shards, 0.0),
      shard_left_(config.num_shards, false) {
  MLLIBSTAR_CHECK_EQ(sim->num_servers(), config.num_shards);
  MLLIBSTAR_CHECK_GT(config.num_shards, 0u);
}

uint64_t PsContext::ShardRangeBytes(size_t s) const {
  const size_t dim = model_.dim();
  const size_t per = (dim + config_.num_shards - 1) / config_.num_shards;
  const size_t lo = std::min(dim, s * per);
  const size_t hi = std::min(dim, lo + per);
  return NetworkModel::DenseBytes(hi - lo);
}

void PsContext::HandleShardCrash(size_t s, SimTime at) {
  SimNode& shard = sim_->server(s);
  const SimTime up_at = at + kServerRestartSeconds;
  sim_->trace().Record(shard.name, at, up_at, ActivityKind::kFault,
                       "ps-shard-down");

  // The restarted shard re-reads its range from the checkpoint store.
  // Every applied update is checkpointed, so the range comes back as it
  // was and the model never changes.
  const SimTime restore_end =
      up_at + static_cast<double>(ShardRangeBytes(s)) /
                  sim_->network().bandwidth();
  sim_->trace().Record(shard.name, up_at, restore_end,
                       ActivityKind::kRecompute, "ps-restore");
  shard.clock = std::max(shard.clock, restore_end);
  shard_down_until_[s] = restore_end;
}

size_t PsContext::ServingShard(size_t s) const {
  size_t serve = s;
  for (size_t hops = 0; hops < config_.num_shards; ++hops) {
    if (!shard_left_[serve]) return serve;
    serve = (serve + 1) % config_.num_shards;
  }
  return s;  // unreachable: at least one shard is always alive
}

void PsContext::OnServerLeft(const MembershipEvent& ev) {
  const size_t s = ev.node;
  MLLIBSTAR_CHECK_LT(s, config_.num_shards);
  if (shard_left_[s]) return;
  size_t alive = 0;
  for (size_t i = 0; i < config_.num_shards; ++i) {
    if (!shard_left_[i]) ++alive;
  }
  if (alive <= 1) return;  // refusing to evict the last shard

  shard_left_[s] = true;
  // The departed shard's range re-reads from the checkpoint store onto
  // its successor, which serves both ranges from then on.
  const size_t successor = ServingShard((s + 1) % config_.num_shards);
  SimNode& succ = sim_->server(successor);
  const std::string& gone = sim_->server(s).name;
  RecordMembershipTransition(&sim_->trace(), ev, gone);
  const SimTime start = std::max(ev.detected_at, succ.clock);
  const SimTime end = start + static_cast<double>(ShardRangeBytes(s)) /
                                  sim_->network().bandwidth();
  sim_->trace().Record(succ.name, start, end, ActivityKind::kRecompute,
                       "ps-shard-migrate");
  succ.clock = std::max(succ.clock, end);
  ++sim_->membership().stats().shard_migrations;
}

WireTally PsContext::wire() const {
  WireTally w = wire_;
  w.retries = sim_->faults().stats().ps_retries;
  return w;
}

SimTime PsContext::TimeTransfer(SimNode* worker, uint64_t total_bytes,
                                bool is_pull, const std::string& detail) {
  const NetworkModel& net = sim_->network();
  const size_t shards = config_.num_shards;
  const uint64_t shard_bytes = (total_bytes + shards - 1) / shards;
  (is_pull ? wire_.pull : wire_.push) += total_bytes;
  FaultInjector& faults = sim_->faults();

  // Fire any scripted shard crash due at this request. The crash makes
  // the shard unavailable until its restore completes.
  for (size_t s = 0; s < shards; ++s) {
    if (shard_left_[s]) continue;  // departed shards can no longer crash
    SimTime crash_at = 0.0;
    if (faults.ServerCrashDue(s, worker->clock, &crash_at)) {
      HandleShardCrash(s, std::max(crash_at, shard_down_until_[s]));
    }
  }

  // Retry with jittered exponential backoff while the request is
  // dropped in-flight or a target shard is down. After
  // kPsMaxRequestRetries the request proceeds regardless and queues on
  // the shard.
  size_t attempt = 0;
  for (;;) {
    const SimTime now = worker->clock;
    bool blocked = faults.NextMessageDrop(now);
    for (size_t s = 0; !blocked && s < shards; ++s) {
      if (shard_down_until_[ServingShard(s)] > now) blocked = true;
    }
    if (!blocked || attempt >= kPsMaxRequestRetries) break;
    ++faults.stats().ps_retries;
    const double backoff =
        std::min(kPsBackoffMaxSec,
                 kPsBackoffBaseSec *
                     std::ldexp(1.0, static_cast<int>(attempt))) *
        (0.5 + 0.5 * faults.NextBackoffJitter());
    const SimTime wait_until = now + kPsRequestTimeoutSec + backoff;
    sim_->trace().Record(worker->name, now, wait_until, ActivityKind::kRetry,
                         detail + "/retry");
    worker->clock = wait_until;
    ++attempt;
  }

  const SimTime request_time = worker->clock;

  // Each shard serves its slice; a shard's link serializes requests
  // from different workers (tracked by the shard's clock). A departed
  // shard's slice is served by its migration successor, whose link
  // then serializes the doubled load.
  SimTime last_shard_done = 0.0;
  for (size_t s = 0; s < shards; ++s) {
    SimNode& shard = sim_->server(ServingShard(s));
    const SimTime start = std::max(request_time + net.latency(), shard.clock);
    const SimTime end =
        start + static_cast<double>(shard_bytes) / net.bandwidth() *
                    sim_->LinkFactor(start);
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
      static_cast<double>(total_bytes) / net.bandwidth() *
          sim_->LinkFactor(request_time);
  const SimTime done = std::max(last_shard_done + net.latency(),
                                worker_link_done);
  sim_->trace().Record(worker->name, worker->clock, done,
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

void PsContext::ApplyRoundAverage(const DenseVector& mean_delta) {
  MLLIBSTAR_CHECK_EQ(mean_delta.dim(), model_.dim());
  model_.AddScaled(mean_delta, 1.0);
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
