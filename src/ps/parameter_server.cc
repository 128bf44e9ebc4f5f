#include "ps/parameter_server.h"

#include <algorithm>
#include <cmath>

#include "comm/error_feedback.h"
#include "common/logging.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace mllibstar {

PsContext::PsContext(SimCluster* sim, size_t dim, const PsConfig& config,
                     const GradientCodec* codec)
    : sim_(sim), config_(config),
      codec_(codec != nullptr ? codec : &PassthroughCodec()), model_(dim),
      shard_down_until_(config.num_shards, 0.0),
      shard_left_(config.num_shards, false), ckpt_model_(dim) {
  MLLIBSTAR_CHECK_EQ(sim->num_servers(), config.num_shards);
  MLLIBSTAR_CHECK_GT(config.num_shards, 0u);
}

void PsContext::HandleShardCrash(size_t s, SimTime at) {
  FaultInjector& faults = sim_->faults();
  SimNode& shard = sim_->server(s);
  const SimTime up_at = at + faults.plan().server_restart_seconds;
  sim_->trace().Record(shard.name, at, up_at, ActivityKind::kFault,
                       "ps-shard-down");
  {
    Telemetry& obs = Telemetry::Get();
    if (obs.enabled()) {
      obs.metrics().Counter("ps.shard_crashes").Add();
      obs.RecordEvent("ps-shard-crash", "ps", at, {{"shard", shard.name}});
    }
  }

  // Updates applied to this shard's model range since the last server
  // checkpoint are lost: roll the range back. With
  // server_checkpoint_every_sec == 0 the last checkpoint *is* the
  // current state, so nothing is lost and crash-free bit-identity
  // holds.
  const size_t dim = model_.dim();
  const size_t per = (dim + config_.num_shards - 1) / config_.num_shards;
  const size_t lo = std::min(dim, s * per);
  const size_t hi = std::min(dim, lo + per);
  for (size_t i = lo; i < hi; ++i) model_[i] = ckpt_model_[i];
  ++version_;

  // The restarted shard re-reads its range from the checkpoint store.
  const uint64_t range_bytes = codec_->EncodedBytes(hi - lo);
  const SimTime restore_end =
      up_at + static_cast<double>(range_bytes) / sim_->network().bandwidth();
  sim_->trace().Record(shard.name, up_at, restore_end,
                       ActivityKind::kRecompute, "ps-restore");
  {
    Telemetry& obs = Telemetry::Get();
    if (obs.enabled()) obs.metrics().Counter("ps.checkpoint_restores").Add();
  }
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

  SimNode& gone = sim_->server(s);
  sim_->trace().Record(gone.name, ev.at, ev.suspect_at,
                       ActivityKind::kMembershipLeave, "membership/leave");
  sim_->trace().Record(gone.name, ev.suspect_at, ev.detected_at,
                       ActivityKind::kMembershipSuspect,
                       "membership/suspected");
  shard_left_[s] = true;

  // The departed shard's range re-reads from the checkpoint store onto
  // its successor, which serves both ranges from then on.
  const size_t successor = ServingShard((s + 1) % config_.num_shards);
  const size_t dim = model_.dim();
  const size_t per = (dim + config_.num_shards - 1) / config_.num_shards;
  const size_t lo = std::min(dim, s * per);
  const size_t hi = std::min(dim, lo + per);
  const uint64_t range_bytes = codec_->EncodedBytes(hi - lo);
  SimNode& succ = sim_->server(successor);
  const SimTime start = std::max(ev.detected_at, succ.clock);
  const SimTime end =
      start + static_cast<double>(range_bytes) / sim_->network().bandwidth();
  sim_->trace().Record(succ.name, start, end, ActivityKind::kRecompute,
                       "ps-shard-migrate");
  succ.clock = std::max(succ.clock, end);
  ++sim_->membership().stats().shard_migrations;
  Telemetry& obs = Telemetry::Get();
  if (obs.enabled()) {
    obs.metrics().Counter("membership.server_leaves").Add();
    obs.metrics().Counter("membership.shard_migrations").Add();
    obs.RecordEvent("membership-server-leave", "membership", ev.detected_at,
                    {{"shard", gone.name},
                     {"successor", succ.name}});
  }
}

void PsContext::MaybeServerCheckpoint() {
  if (config_.server_checkpoint_every_sec <= 0.0 ||
      last_push_end_ - last_ckpt_time_ >=
          config_.server_checkpoint_every_sec) {
    ckpt_model_ = model_;
    last_ckpt_time_ = last_push_end_;
  }
}

SimTime PsContext::TimeTransfer(SimNode* worker, uint64_t total_bytes,
                                bool is_pull, const std::string& detail) {
  const NetworkModel& net = sim_->network();
  const size_t shards = config_.num_shards;
  const uint64_t shard_bytes = (total_bytes + shards - 1) / shards;
  total_bytes_ += total_bytes;
  FaultInjector& faults = sim_->faults();
  Telemetry& obs = Telemetry::Get();
  if (obs.enabled()) {
    obs.metrics().Counter(is_pull ? "ps.pulls" : "ps.pushes").Add();
    obs.metrics()
        .Counter("ps.bytes", {{"path", is_pull ? "pull" : "push"}})
        .Add(total_bytes);
  }

  // Fire any shard crash due at this request (scripted events, or the
  // probabilistic while-serving draw). The crash rolls the shard's
  // range back to its checkpoint and makes it unavailable until the
  // restore completes.
  for (size_t s = 0; s < shards; ++s) {
    if (shard_left_[s]) continue;  // departed shards can no longer crash
    SimTime crash_at = 0.0;
    if (faults.ServerCrashDue(s, worker->clock, &crash_at)) {
      HandleShardCrash(s, std::max(crash_at, shard_down_until_[s]));
    } else if (faults.plan().server_crash_prob > 0.0 &&
               faults.NextServerCrash()) {
      HandleShardCrash(s, std::max(worker->clock,
                                   sim_->server(s).clock));
    }
  }

  // Retry with jittered exponential backoff while the request is
  // dropped in-flight or a target shard is down. After
  // max_request_retries the request proceeds regardless and queues on
  // the shard.
  size_t attempt = 0;
  for (;;) {
    const SimTime now = worker->clock;
    bool blocked = faults.NextMessageDrop(now);
    for (size_t s = 0; !blocked && s < shards; ++s) {
      if (shard_down_until_[ServingShard(s)] > now) blocked = true;
    }
    if (!blocked || attempt >= config_.max_request_retries) break;
    ++faults.stats().ps_retries;
    if (obs.enabled()) obs.metrics().Counter("ps.retries").Add();
    const double backoff =
        std::min(config_.backoff_max_sec,
                 config_.backoff_base_sec *
                     std::ldexp(1.0, static_cast<int>(attempt))) *
        (0.5 + 0.5 * faults.NextBackoffJitter());
    const SimTime wait_until = now + config_.request_timeout_sec + backoff;
    if (obs.enabled()) {
      // Backoff spent waiting, in simulated microseconds (integer so a
      // counter can accumulate it).
      obs.metrics()
          .Counter("ps.backoff_sim_us")
          .Add(static_cast<uint64_t>(backoff * 1e6));
    }
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
      const uint64_t apply_work =
          shard_bytes / 8 / std::max<size_t>(1, sim_->config().server_cores);
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
  if (!is_pull) last_push_end_ = std::max(last_push_end_, done);
  return done;
}

SimTime PsContext::TimePull(SimNode* worker) {
  return TimeTransfer(worker, codec_->EncodedBytes(dim()),
                      /*is_pull=*/true, "ps-pull");
}

SimTime PsContext::TimePull(SimNode* worker, uint64_t bytes) {
  return TimeTransfer(worker, bytes, /*is_pull=*/true, "ps-pull");
}

SimTime PsContext::TimePush(SimNode* worker, uint64_t bytes) {
  return TimeTransfer(worker, bytes, /*is_pull=*/false, "ps-push");
}

SimTime PsContext::TimePush(SimNode* worker) {
  return TimePush(worker, codec_->EncodedBytes(dim()));
}

uint64_t PsContext::SparseUpdateBytes(size_t nnz, size_t dim) {
  return PassthroughCodec().SparseEncodedBytes(nnz, dim);
}

std::shared_ptr<const DenseVector> PsContext::PullSnapshot() {
  if (pull_snapshot_ != nullptr && pull_snapshot_version_ == version_) {
    AccountBroadcast(*codec_, model_.dim());
    return pull_snapshot_;
  }
  auto snapshot = std::make_shared<DenseVector>(model_);
  CodecTransmit(*codec_, nullptr, 0, snapshot.get());
  pull_snapshot_ = std::move(snapshot);
  pull_snapshot_version_ = version_;
  return pull_snapshot_;
}

void PsContext::ResetModel(DenseVector model) {
  MLLIBSTAR_CHECK_EQ(model.dim(), model_.dim());
  model_ = std::move(model);
  ckpt_model_ = model_;
  ++version_;
}

void PsContext::ApplyDelta(const DenseVector& delta) {
  MLLIBSTAR_CHECK_EQ(delta.dim(), model_.dim());
  model_.AddScaled(delta, config_.delta_scale);
  ++version_;
  MaybeServerCheckpoint();
}

void PsContext::ApplyRoundAverage(const DenseVector& mean_delta) {
  MLLIBSTAR_CHECK_EQ(mean_delta.dim(), model_.dim());
  model_.AddScaled(mean_delta, 1.0);
  ++version_;
  if (config_.server_checkpoint_every_sec <= 0.0) ckpt_model_ = model_;
}

SimTime ConsistencyStartTime(
    ConsistencyKind kind, int staleness, size_t worker, int round,
    const std::vector<std::vector<SimTime>>& finish_times) {
  // Own previous round always gates the next one.
  SimTime start = 0.0;
  if (round > 0 &&
      static_cast<size_t>(round - 1) < finish_times[worker].size()) {
    start = finish_times[worker][round - 1];
  }

  int barrier_round = -1;
  switch (kind) {
    case ConsistencyKind::kAsp:
      return start;
    case ConsistencyKind::kBsp:
      barrier_round = round - 1;
      break;
    case ConsistencyKind::kSsp:
      barrier_round = round - 1 - staleness;
      break;
  }
  if (barrier_round < 0) return start;
  for (const std::vector<SimTime>& times : finish_times) {
    if (static_cast<size_t>(barrier_round) < times.size()) {
      start = std::max(start, times[barrier_round]);
    }
  }
  return start;
}

}  // namespace mllibstar
