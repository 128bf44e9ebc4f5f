#include "train/ps_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <tuple>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/gd.h"
#include "data/partition.h"
#include "engine/spark_cluster.h"
#include "obs/engine_profiler.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace mllibstar {

PsTrainer::PsTrainer(Mode mode, TrainerConfig config)
    : Trainer(std::move(config)), mode_(mode) {}

std::string PsTrainer::name() const {
  switch (mode_) {
    case Mode::kPetuum:
      return "petuum";
    case Mode::kPetuumStar:
      return "petuum*";
    case Mode::kAngel:
      return "angel";
  }
  return "ps";
}

// The PS systems run as a discrete-event simulation: each worker is a
// state machine (pull -> compute -> push -> next round) and the
// earliest pending event executes first, so a fast worker's
// round-(t+1) pull is served before a straggler's round-t push — the
// causal behavior that makes SSP/ASP actually pay off. Consistency
// gates when a worker may *start* a round; the model a pull returns is
// the live server state at pull time (summation mode) or the newest
// finalized round average (averaging mode).
TrainResult PsTrainer::Train(const Dataset& data,
                             const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  const size_t d = data.num_features();

  // The aggregation scheme is what distinguishes the systems (paper
  // §IV-B1 remark): Petuum* averages the round's models, Petuum and
  // Angel sum deltas into the live model as pushes land. The shard
  // count and the staleness bound come from the config.
  const bool average_models = mode_ == Mode::kPetuumStar;
  const PsConfig& ps = config().ps;
  // Angel normalizes each worker's epoch update by the worker count
  // when applying (otherwise k simultaneous epoch deltas overshoot), so
  // the sum behaves like an average of deltas.
  const double delta_scale =
      mode_ == Mode::kAngel ? 1.0 / static_cast<double>(cluster.num_workers)
                            : 1.0;

  ClusterConfig cc = cluster;
  cc.num_servers = ps.num_shards;
  SimCluster sim(cc);
  PsContext server(&sim, d, ps);

  const size_t k = sim.num_workers();
  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  std::vector<Rng> rngs = WorkerRngs(config().seed, k);

  // Per-worker and per-round progress.
  std::vector<std::vector<SimTime>> finish_times(k);
  std::vector<int> rounds_done(k, 0);
  std::vector<DenseVector> pending_delta(k);  // between pull and push
  std::vector<size_t> round_pushes;           // pushes seen per round
  std::vector<SimTime> round_end;             // latest push per round
  std::vector<bool> round_complete;           // completion fired once
  std::vector<DenseVector> round_stage;       // averaging: delta sums
  // Staleness occupancy per round (pure observation — never read by
  // the math): how far behind the leader each push was.
  std::vector<double> round_stale_sum;
  std::vector<double> round_stale_max;

  // Elastic membership. join_round[r] is the first round worker r
  // participates in (kNeverJoined while it sits in the joiner pool);
  // a round completes once every worker that joined by then and has
  // not departed mid-round has pushed. incarnation[r] invalidates the
  // queued events of an evicted worker: a push that pops after its
  // eviction tick is dropped, never applied.
  MembershipTracker& membership = sim.membership();
  const int kNeverJoined = std::numeric_limits<int>::max();
  std::vector<int> join_round(k, 0);
  for (size_t r = 0; r < k; ++r) {
    if (!membership.IsActive(r)) join_round[r] = kNeverJoined;
  }
  std::vector<uint64_t> incarnation(k, 0);
  std::vector<SimTime> admit_time(k, 0.0);
  std::vector<bool> pending_catchup(k, false);

  int max_rounds = config().max_comm_steps;
  int last_completed_round = 0;

  // Resume. PS checkpoints are only written at quiescent BSP round
  // boundaries (every worker has pushed round t, nothing queued or in
  // flight), so the restored state is exactly "all workers about to
  // schedule round t+1": model, per-worker RNG cursors, the shared
  // jitter/failure/fault streams, every virtual clock, and the finish
  // times the consistency barrier reads. Runs with a staleness bound
  // have no quiescent point and never write checkpoints.
  int resumed_round = 0;
  {
    Checkpoint ck;
    if (TryResume(config().checkpoint, &ck)) {
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(CheckpointTag::kPs));
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), 0u);  // reserved class-count word
      resumed_round = static_cast<int>(ck.TakeU64());
      server.ResetModel(ck.TakeVector());
      TakeWorkerRngs(&ck, &rngs);
      sim.mutable_jitter_rng()->RestoreState(ck.TakeRngState());
      sim.mutable_failure_rng()->RestoreState(ck.TakeRngState());
      sim.faults().mutable_rng()->RestoreState(ck.TakeRngState());
      sim.RestoreClocks(ck.TakeDoubles());
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), k);
      for (size_t r = 0; r < k; ++r) finish_times[r] = ck.TakeDoubles();
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), 0u);  // reserved residual-count word
      // Membership block: the failure detector resumes mid-churn with
      // already-fired events fired, the Poisson cursor un-rewound, and
      // every worker's participation window intact — a resumed churn
      // run replays the remaining transitions bit-identically.
      {
        membership.RestoreWords(ck.TakeWords());
        for (size_t v = 0; v < k; ++v) {
          join_round[v] = static_cast<int>(ck.TakeU64());
        }
        for (size_t v = 0; v < k; ++v) {
          rounds_done[v] = static_cast<int>(ck.TakeU64());
        }
        const std::vector<double> admits = ck.TakeDoubles();
        MLLIBSTAR_CHECK_EQ(admits.size(), k);
        for (size_t v = 0; v < k; ++v) admit_time[v] = admits[v];
        for (size_t v = 0; v < k; ++v) pending_catchup[v] = ck.TakeU64() != 0;
      }
      MLLIBSTAR_CHECK(ck.exhausted());
      // Completed rounds stay completed; their staging slots were
      // already released and will not be touched again.
      round_pushes.assign(resumed_round, k);
      round_end.assign(resumed_round, 0.0);
      round_complete.assign(resumed_round, true);
      round_stale_sum.assign(resumed_round, 0.0);
      round_stale_max.assign(resumed_round, 0.0);
      if (average_models) {
        round_stage.assign(resumed_round, DenseVector());
      }
      last_completed_round = resumed_round;
    }
  }

  result.curve.set_label(name());
  result.curve.Add(resumed_round, 0.0, Eval(data, server.model()));

  ScopedSpan run_span("train:" + name(), "trainer");
  // The whole PS event loop is kPs host time; the nested kKernels /
  // kCheckpoint scopes carve their shares out (exclusive attribution).
  EngineProfiler::Scope ps_prof(Subsystem::kPs);
  // Per-round profile state: the virtual frontier where the previous
  // completed round ended, and the run's wire totals at that point.
  SimTime profile_frontier = 0.0;
  WireTally wire_at_frontier = server.wire();
  std::vector<double> offsets;  // the round's push offsets, reused

  // Runs the system-specific local computation, updating `*local` in
  // place and returning the work done (paper §III-B differences).
  auto local_compute = [&](size_t r, int round,
                           DenseVector* local) -> ComputeStats {
    const CsrBlock& part = partitions[r];
    const size_t bsize = BatchSize(part.rows(), config().batch_fraction);
    const double lr = schedule().LrAt(round);
    ComputeStats stats;
    if (bsize == 0) return stats;
    switch (mode_) {
      case Mode::kPetuum:
      case Mode::kPetuumStar: {
        if (regularizer().kind() == RegularizerKind::kNone) {
          // Parallel SGD inside the batch: many updates per step. The
          // subset epoch shuffles the sampled row ids directly —
          // identical math to copying the rows out, without the copy.
          const std::vector<size_t> batch =
              SampleBatch(part.rows(), bsize, &rngs[r]);
          stats = objective().SgdEpoch(part, batch, lr, &rngs[r], local);
        } else {
          // Nonzero regularization: one batch-GD update per step
          // (dense regularizer updates are too expensive per point).
          stats = objective().MiniBatchGd(part, lr, bsize,
                                          /*num_batches=*/1, &rngs[r], local);
        }
        break;
      }
      case Mode::kAngel: {
        // One epoch of batch GD locally, communicating once.
        const size_t num_batches = (part.rows() + bsize - 1) / bsize;
        stats = objective().MiniBatchGd(part, lr, bsize, num_batches,
                                        &rngs[r], local);
        // Allocating and collecting a dense gradient buffer per batch
        // (paper §V-B2's memory/GC overhead).
        stats.nnz_processed += num_batches * (d / 4);
        break;
      }
    }
    return stats;
  };

  // Event queue: (time, phase, worker, incarnation), earliest first.
  // Workers whose next round is blocked on the consistency barrier
  // wait in `parked` and are reconsidered whenever any worker finishes
  // a round or the membership changes. The incarnation tag makes the
  // queued events of an evicted worker recognizably stale.
  enum Phase { kPull = 0, kPush = 1 };
  using Event = std::tuple<SimTime, int, size_t, uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::vector<size_t> parked;

  // Schedules worker r's next pull if the consistency barrier for its
  // round is already determined; parks it otherwise. Departed and
  // still-pending workers neither schedule nor hold the gate.
  auto try_schedule_pull = [&](size_t r) {
    if (!membership.IsActive(r)) return;
    const int round = rounds_done[r];
    if (round >= max_rounds) return;
    const int gate = round - 1 - ps.staleness;
    if (gate >= 0) {
      for (size_t v = 0; v < k; ++v) {
        if (!membership.IsActive(v)) continue;
        if (rounds_done[v] <= gate) {
          parked.push_back(r);
          return;
        }
      }
    }
    const SimTime barrier =
        ConsistencyStartTime(ps.staleness, r, round, finish_times);
    SimNode& node = sim.worker(r);
    if (node.clock < barrier) {
      sim.trace().Record(node.name, node.clock, barrier, ActivityKind::kWait,
                         "consistency-wait");
      node.clock = barrier;
    }
    queue.emplace(node.clock, kPull, r, incarnation[r]);
  };

  for (size_t r = 0; r < k; ++r) try_schedule_pull(r);

  // Host parallelism. A popped pull's local computation is independent
  // of everything that can pop before the matching push (it trains on
  // the snapshot the wire delivered, with its own Rng), so it may run
  // on a pool thread while the event loop keeps popping. Determinism
  // holds because (a) the straggler jitter is pre-drawn at pop time,
  // in pop order; (b) an event pops while computes are in flight only
  // if it would also have popped before their pushes in the
  // sequential schedule: a worker's push can land no earlier than its
  // pull completed, so `bound = min in-flight pull-completion` lower-
  // bounds every pending push time (pulls win ties against pushes);
  // (c) drain() applies charges, counter folds and push enqueues in
  // pop order. Pop sequence, RNG streams, clocks and traces are
  // therefore identical for any host_threads value.
  struct InflightCompute {
    size_t worker = 0;
    int round = 0;
    uint64_t inc = 0;       ///< worker incarnation at pull time
    double jitter = 1.0;    ///< pre-drawn from the shared stream
    SimTime pull_end = 0.0; ///< worker clock right after its pull
    /// Model the wire delivered, shared by every pull at its version.
    std::shared_ptr<const DenseVector> snapshot;
    DenseVector local;      ///< updated in place by the compute task
    ComputeStats stats;     ///< filled by the compute task
  };
  std::vector<std::unique_ptr<InflightCompute>> inflight;
  const size_t host_threads = ResolveHostThreads(config().host_threads);
  std::unique_ptr<ThreadPool> pool;
  if (host_threads > 1 && k > 1) {
    pool = std::make_unique<ThreadPool>(std::min(host_threads, k));
  }

  auto drain = [&] {
    if (inflight.empty()) return;
    if (pool != nullptr) pool->WaitAll();
    for (std::unique_ptr<InflightCompute>& fl : inflight) {
      SimNode& node = sim.worker(fl->worker);
      result.total_model_updates += fl->stats.model_updates;
      const double dur = static_cast<double>(fl->stats.nnz_processed) /
                         node.compute_speed * fl->jitter;
      SimTime crash_at = 0.0;
      if (sim.faults().WorkerCrashes(fl->worker, node.clock,
                                     node.clock + dur, &crash_at)) {
        // PS workers keep their partition local, so recovery is a
        // restart plus a re-run on the same node (no lineage transfer
        // to a survivor), charged at a fresh failure-stream jitter.
        // The numeric delta below is unaffected: faults cost virtual
        // time only.
        if (crash_at > node.clock) {
          sim.trace().Record(node.name, node.clock, crash_at,
                             ActivityKind::kCompute, "local-train/lost");
        }
        const SimTime up_at =
            crash_at + sim.faults().plan().executor_restart_seconds;
        sim.trace().Record(node.name, crash_at, up_at, ActivityKind::kFault,
                           "executor-down");
        node.clock = up_at;
        ++sim.faults().stats().lineage_recomputes;
        const double redo = static_cast<double>(fl->stats.nnz_processed) /
                            node.compute_speed * sim.NextRetryJitter();
        sim.trace().Record(node.name, node.clock, node.clock + redo,
                           ActivityKind::kRecompute, "local-train/rerun");
        node.clock += redo;
      } else {
        sim.ChargeCompute(&node, fl->stats.nnz_processed, fl->jitter,
                          "local-train");
      }
      fl->local.AddScaled(*fl->snapshot, -1.0);  // local := delta
      pending_delta[fl->worker] = std::move(fl->local);
      queue.emplace(node.clock, kPush, fl->worker, fl->inc);
    }
    inflight.clear();
  };

  // How many pushes round t needs before it is complete: every worker
  // that had joined by round t and has not departed with the push
  // still owed. Reduces to k when the membership never changes.
  auto expected_pushes = [&](int t) -> size_t {
    size_t n = 0;
    for (size_t v = 0; v < k; ++v) {
      if (join_round[v] > t) continue;
      if (membership.IsActive(v) || rounds_done[v] > t) ++n;
    }
    return n;
  };

  bool stop_all = false;

  // Fires the round-t completion (averaging finalize, the round's
  // profile, checkpoint, eval) once its expected pushes are in.
  // Invoked after every push and after every departure — a leave can
  // complete the round that was only waiting on the departed pusher.
  auto complete_round = [&](int t) {
    if (t < 0 || static_cast<size_t>(t) >= round_pushes.size()) return;
    if (round_complete[t]) return;
    const size_t expected = expected_pushes(t);
    if (round_pushes[t] < expected || round_pushes[t] == 0) return;
    round_complete[t] = true;
    if (membership.enabled() && expected < k) {
      ++membership.stats().degraded_rounds;
    }
    // The round is complete everywhere.
    if (average_models) {
      // New global model = old model + average of the round's deltas
      // (with a full fleet exactly the old 1/k).
      round_stage[t].Scale(1.0 / static_cast<double>(round_pushes[t]));
      server.ApplyDelta(round_stage[t], 1.0);
      round_stage[t] = DenseVector();  // release
    }
    const int completed = t + 1;
    last_completed_round = std::max(last_completed_round, completed);
    // The round's profile. A PS round has no task batches — the "task
    // duration" proxy is each worker's push instant relative to the
    // round's earliest push, which is exactly the straggler spread SSP
    // bounds. Compute overlaps communication here by design, so the
    // Spark compute/wait/comm split stays zero.
    RoundProfile profile;
    profile.system = name();
    profile.round = t;
    profile.sim_start = profile_frontier;
    profile.sim_end = round_end[t];
    offsets.clear();
    for (size_t v = 0; v < k; ++v) {
      if (finish_times[v].size() > static_cast<size_t>(t) &&
          finish_times[v][t] > 0.0) {
        offsets.push_back(finish_times[v][t]);
      }
    }
    if (!offsets.empty()) {
      const double first = *std::min_element(offsets.begin(), offsets.end());
      for (double& f : offsets) f -= first;
    }
    SetTaskSpread(&offsets, &profile);
    const WireTally wire_now = server.wire();
    profile.wire = wire_now.Since(wire_at_frontier);
    wire_at_frontier = wire_now;
    profile.staleness_samples = round_pushes[t];
    profile.staleness_mean =
        round_stale_sum[t] / static_cast<double>(round_pushes[t]);
    profile.staleness_max = round_stale_max[t];
    profile_frontier = std::max(profile_frontier, round_end[t]);
    result.rounds.push_back(std::move(profile));
    // A completed BSP round (staleness 0) is a quiescent point — every
    // participating worker has pushed, nothing is queued or in flight —
    // which is the one moment the whole trainer state is a handful of
    // vectors and cursors. Snapshot it if the cadence says so.
    if (ps.staleness == 0 && queue.empty() &&
        inflight.empty() &&
        ShouldCheckpoint(config().checkpoint, completed)) {
      Checkpoint ck;
      ck.PutU64(static_cast<uint64_t>(CheckpointTag::kPs));
      ck.PutU64(0);  // reserved class-count word
      ck.PutU64(static_cast<uint64_t>(completed));
      ck.PutVector(server.model());
      PutWorkerRngs(&ck, rngs);
      ck.PutRngState(sim.mutable_jitter_rng()->SaveState());
      ck.PutRngState(sim.mutable_failure_rng()->SaveState());
      ck.PutRngState(sim.faults().mutable_rng()->SaveState());
      ck.PutDoubles(sim.SaveClocks());
      ck.PutU64(k);
      for (size_t v = 0; v < k; ++v) ck.PutDoubles(finish_times[v]);
      ck.PutU64(0);  // reserved residual-count word
      {
        ck.PutWords(membership.SaveWords());
        for (size_t v = 0; v < k; ++v) {
          ck.PutU64(static_cast<uint64_t>(join_round[v]));
        }
        for (size_t v = 0; v < k; ++v) {
          ck.PutU64(static_cast<uint64_t>(rounds_done[v]));
        }
        ck.PutDoubles(
            std::vector<double>(admit_time.begin(), admit_time.end()));
        for (size_t v = 0; v < k; ++v) ck.PutU64(pending_catchup[v] ? 1 : 0);
      }
      MLLIBSTAR_CHECK_OK(ck.WriteFile(config().checkpoint.path));
    }
    if (completed % config().eval_every == 0 || completed >= max_rounds) {
      const double objective = Eval(data, server.model());
      result.curve.Add(completed, round_end[t], objective);
      if (IsDiverged(objective)) {
        result.diverged = true;
        stop_all = true;
        return;
      }
      if (ShouldStop(completed, objective)) {
        max_rounds = std::min(max_rounds, completed);
      }
    }
  };

  // Fires every membership transition detected by `now`. A departed
  // worker's incarnation bumps (its queued events become stale) and
  // any round that was only waiting on its push completes; a joiner is
  // admitted at the fleet's current frontier round and scheduled.
  // Parked workers retry afterwards — the consistency gate may have
  // lost a member.
  auto process_churn = [&](SimTime now) {
    if (!membership.enabled()) return;
    const std::vector<MembershipEvent> events = membership.AdvanceTo(now);
    if (events.empty()) return;
    for (const MembershipEvent& ev : events) {
      SimNode& node = sim.worker(ev.node);
      RecordMembershipTransition(&sim.trace(), ev, node.name);
      if (ev.kind == MembershipEvent::Kind::kLeave) {
        ++incarnation[ev.node];
        pending_delta[ev.node] = DenseVector();
        pending_catchup[ev.node] = false;
        for (int t = 0; t < static_cast<int>(round_pushes.size()); ++t) {
          complete_round(t);
        }
        continue;
      }
      // A join or rejoin, admitted at the current leader round: the
      // joiner pulls the live model and contributes from the fleet's
      // frontier, not from round 0 (a rejoiner never re-pushes rounds it
      // already finished in a previous incarnation).
      node.clock = std::max(node.clock, ev.detected_at);
      int leader = last_completed_round;
      for (size_t v = 0; v < k; ++v) {
        if (v == ev.node || !membership.IsActive(v)) continue;
        leader = std::max(leader, rounds_done[v]);
      }
      rounds_done[ev.node] = std::max(rounds_done[ev.node], leader);
      join_round[ev.node] = rounds_done[ev.node];
      admit_time[ev.node] = ev.detected_at;
      pending_catchup[ev.node] = true;
      try_schedule_pull(ev.node);
    }
    std::vector<size_t> to_retry;
    std::swap(parked, to_retry);
    for (size_t v : to_retry) try_schedule_pull(v);
  };

  while (true) {
    if (queue.empty()) {
      if (!inflight.empty()) {
        drain();
        continue;
      }
      // Idle with workers parked: only a membership transition can
      // unpark them (the gate is waiting on a silent, not-yet-evicted
      // worker) — advance virtual time straight to the next one.
      if (!parked.empty() && membership.enabled()) {
        const SimTime next = membership.NextEventTime();
        if (std::isfinite(next)) {
          process_churn(next);
          if (stop_all) break;
          continue;
        }
      }
      break;
    }
    const auto [time, phase, r, inc] = queue.top();
    if (!inflight.empty()) {
      SimTime bound = std::numeric_limits<SimTime>::infinity();
      for (const std::unique_ptr<InflightCompute>& fl : inflight) {
        bound = std::min(bound, fl->pull_end);
      }
      const bool safe = phase == kPull ? time <= bound : time < bound;
      if (!safe) {
        drain();
        continue;
      }
    }
    queue.pop();
    EngineProfiler::Get().AddEvents(Subsystem::kPs, 1);
    process_churn(time);
    if (stop_all) break;
    if (inc != incarnation[r] || !membership.IsActive(r)) {
      // A stale event of an evicted (or evicted-and-readmitted)
      // worker: the pull never happens / the in-flight push is lost
      // with the node.
      if (phase == kPush) pending_delta[r] = DenseVector();
      continue;
    }
    SimNode& node = sim.worker(r);
    const int round = rounds_done[r];

    if (phase == kPull) {
      server.TimePull(&node);
      // The worker trains on the model the wire delivered.
      auto fl = std::make_unique<InflightCompute>();
      fl->worker = r;
      fl->round = round;
      fl->inc = inc;
      fl->jitter = sim.NextJitter();
      fl->pull_end = node.clock;
      fl->snapshot = server.PullSnapshot();
      fl->local = *fl->snapshot;
      InflightCompute* task = fl.get();
      inflight.push_back(std::move(fl));
      if (pool != nullptr) {
        pool->Submit([task, &local_compute] {
          // Pool thread: the profiler's frame stack is empty here, so
          // the scope charges kKernels alone (no kPs double-count).
          EngineProfiler::Scope kernel_prof(Subsystem::kKernels);
          EngineProfiler::Get().AddEvents(Subsystem::kKernels, 1);
          task->stats =
              local_compute(task->worker, task->round, &task->local);
        });
      } else {
        // Run the compute synchronously but leave the charge to the
        // same drain ordering the pool path uses, so the trace event
        // sequence is byte-identical for every host_threads value.
        EngineProfiler::Scope kernel_prof(Subsystem::kKernels);
        EngineProfiler::Get().AddEvents(Subsystem::kKernels, 1);
        task->stats = local_compute(task->worker, task->round, &task->local);
      }
      continue;
    }

    // kPush: the wire carries whichever of the dense and sparse
    // index/value encodings of the delta is smaller.
    const DenseVector& delta = pending_delta[r];
    server.TimePush(&node, NetworkModel::SparseBytes(delta.CountNonZeros(), d));
    if (static_cast<size_t>(round) >= round_pushes.size()) {
      round_pushes.resize(round + 1, 0);
      round_end.resize(round + 1, 0.0);
      round_complete.resize(round + 1, false);
      round_stale_sum.resize(round + 1, 0.0);
      round_stale_max.resize(round + 1, 0.0);
      if (average_models) {
        round_stage.resize(round + 1, DenseVector(d));
      }
    }
    // A joiner's first landed push closes its catch-up window.
    if (pending_catchup[r]) {
      membership.stats().catchup_latency_sum += node.clock - admit_time[r];
      ++membership.stats().catchup_count;
      pending_catchup[r] = false;
    }
    if (average_models) {
      round_stage[round].AddScaled(delta, 1.0);
    } else {
      server.ApplyDelta(delta, delta_scale);
    }
    const int leader =
        *std::max_element(rounds_done.begin(), rounds_done.end());
    const double lag = static_cast<double>(leader - round);
    round_stale_sum[round] += lag;
    round_stale_max[round] = std::max(round_stale_max[round], lag);
    pending_delta[r] = DenseVector();  // release
    ++round_pushes[round];
    round_end[round] = std::max(round_end[round], node.clock);
    // Round-indexed (not appended): a joiner admitted at the frontier
    // skips earlier rounds, whose slots stay 0 and never gate anyone.
    if (static_cast<size_t>(round) >= finish_times[r].size()) {
      finish_times[r].resize(round + 1, 0.0);
    }
    finish_times[r][round] = node.clock;
    ++rounds_done[r];

    complete_round(round);
    if (stop_all) break;

    // This push may have unblocked parked workers (the gate condition
    // is per-worker progress, not whole-round completion).
    std::vector<size_t> to_retry;
    std::swap(parked, to_retry);
    for (size_t v : to_retry) try_schedule_pull(v);
    try_schedule_pull(r);
  }

  // A divergence break can leave computes in flight; the sequential
  // schedule would already have charged them, so charge them here too
  // before reading the clocks.
  drain();
  run_span.SetSimRange(0.0, sim.Now());
  // A run that stops early (ShouldStop lowered max_rounds) still moves
  // traffic after its last completed round: workers up to `staleness`
  // rounds ahead finish the pulls and pushes they had started. That
  // round holds it, so the rounds' bytes add up to the run's.
  if (!result.rounds.empty()) {
    result.rounds.back().wire += server.wire().Since(wire_at_frontier);
  }

  result.comm_steps = std::min(last_completed_round, max_rounds);
  result.final_weights = server.model();
  result.sim_seconds = sim.Now();
  result.total_bytes = server.total_bytes();
  result.faults = sim.faults().stats();
  result.membership = membership.stats();
  result.trace = std::move(sim.trace());
  return result;
}

}  // namespace mllibstar
