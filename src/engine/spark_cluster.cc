#include "engine/spark_cluster.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "common/logging.h"
#include "obs/engine_profiler.h"
#include "obs/telemetry.h"

namespace mllibstar {

size_t ResolveHostThreads(size_t host_threads) {
  if (host_threads != 0) return host_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

SparkCluster::SparkCluster(const ClusterConfig& config, size_t host_threads)
    : sim_(config) {
  const size_t threads = ResolveHostThreads(host_threads);
  if (threads > 1 && sim_.num_workers() > 1) {
    pool_ = std::make_unique<ThreadPool>(std::min(threads, sim_.num_workers()));
  }
  const size_t k = sim_.num_workers();
  assign_.resize(k);
  for (size_t r = 0; r < k; ++r) assign_[r] = r;
  needs_rebuild_.assign(k, false);
  admit_time_.assign(k, 0.0);
  pending_catchup_.assign(k, false);
  // Partitions of initially pending slots (joiner pool) start on the
  // least-loaded initial members; they are warm there (no rebuild).
  const MembershipTracker& membership = sim_.membership();
  if (membership.num_active() < k) {
    MLLIBSTAR_CHECK_GT(membership.num_active(), 0u);
    std::vector<size_t> load(k, 0);
    for (size_t r = 0; r < k; ++r) {
      if (membership.IsActive(r)) load[r] = 1;
    }
    for (size_t r = 0; r < k; ++r) {
      if (membership.IsActive(r)) continue;
      size_t host = k;
      for (size_t h = 0; h < k; ++h) {
        if (!membership.IsActive(h)) continue;
        if (host == k || load[h] < load[host]) host = h;
      }
      assign_[r] = host;
      ++load[host];
    }
  }
}

std::vector<size_t> SparkCluster::ActiveWorkers() const {
  std::vector<size_t> active;
  active.reserve(sim_.num_workers());
  for (size_t w = 0; w < sim_.num_workers(); ++w) {
    if (sim_.membership().IsActive(w)) active.push_back(w);
  }
  return active;
}

void SparkCluster::ApplyChurn(SimTime at) {
  MembershipTracker& membership = sim_.membership();
  if (!membership.enabled()) return;
  const size_t k = sim_.num_workers();
  for (const MembershipEvent& ev : membership.AdvanceTo(at)) {
    SimNode& node = sim_.worker(ev.node);
    RecordMembershipTransition(&trace(), ev, node.name);
    if (ev.kind == MembershipEvent::Kind::kLeave) {
      // The departed executor's partitions migrate to the
      // least-loaded survivors and must be lineage-rebuilt there.
      MLLIBSTAR_CHECK_GT(membership.num_active(), 0u);
      std::vector<size_t> load(k, 0);
      for (size_t r = 0; r < k; ++r) {
        if (membership.IsActive(assign_[r])) ++load[assign_[r]];
      }
      for (size_t r = 0; r < k; ++r) {
        if (assign_[r] != ev.node) continue;
        size_t host = k;
        for (size_t h = 0; h < k; ++h) {
          if (!membership.IsActive(h)) continue;
          if (host == k || load[h] < load[host]) host = h;
        }
        assign_[r] = host;
        ++load[host];
        needs_rebuild_[r] = true;
        ++membership.stats().partitions_migrated;
      }
      pending_catchup_[ev.node] = false;
      continue;
    }
    // A join or rejoin.
    node.clock = std::max(node.clock, ev.detected_at);
    admit_time_[ev.node] = ev.detected_at;
    pending_catchup_[ev.node] = true;
    // Rebalance: pull partitions off the most-loaded hosts until the
    // joiner carries its fair share; each moved partition is cold on
    // the joiner and rebuilds via lineage.
    std::vector<size_t> load(k, 0);
    for (size_t r = 0; r < k; ++r) ++load[assign_[r]];
    const size_t fair = k / membership.num_active();
    while (load[ev.node] < fair) {
      size_t donor = k;
      for (size_t h = 0; h < k; ++h) {
        if (h == ev.node) continue;
        if (donor == k || load[h] > load[donor]) donor = h;
      }
      if (donor == k || load[donor] <= load[ev.node] + 1) break;
      size_t moved = k;
      for (size_t r = k; r-- > 0;) {
        if (assign_[r] == donor) {
          moved = r;
          break;
        }
      }
      if (moved == k) break;
      assign_[moved] = ev.node;
      --load[donor];
      ++load[ev.node];
      needs_rebuild_[moved] = true;
      ++membership.stats().partitions_migrated;
    }
  }
}

std::vector<uint64_t> SparkCluster::SaveElasticWords() const {
  std::vector<uint64_t> words;
  const std::vector<uint64_t> mwords = sim_.membership().SaveWords();
  words.push_back(mwords.size());
  words.insert(words.end(), mwords.begin(), mwords.end());
  for (size_t h : assign_) words.push_back(h);
  for (bool b : needs_rebuild_) words.push_back(b ? 1 : 0);
  for (SimTime t : admit_time_) words.push_back(std::bit_cast<uint64_t>(t));
  for (bool b : pending_catchup_) words.push_back(b ? 1 : 0);
  return words;
}

void SparkCluster::RestoreElasticWords(const std::vector<uint64_t>& words) {
  size_t i = 0;
  auto take = [&]() {
    MLLIBSTAR_CHECK(i < words.size());
    return words[i++];
  };
  // Every word below is checked before it sizes or indexes anything.
  const uint64_t count = take();
  MLLIBSTAR_CHECK_LE(count, words.size() - i)
      << "the membership block runs past the elastic words";
  const auto mbegin = words.begin() + static_cast<std::ptrdiff_t>(i);
  i += count;
  sim_.membership().RestoreWords(std::vector<uint64_t>(
      mbegin, words.begin() + static_cast<std::ptrdiff_t>(i)));
  for (size_t& h : assign_) {
    h = take();
    MLLIBSTAR_CHECK_LT(h, num_workers())
        << "a partition's host index is not an executor";
  }
  for (size_t r = 0; r < needs_rebuild_.size(); ++r) {
    needs_rebuild_[r] = take() != 0;
  }
  for (SimTime& t : admit_time_) t = std::bit_cast<double>(take());
  for (size_t r = 0; r < pending_catchup_.size(); ++r) {
    pending_catchup_[r] = take() != 0;
  }
  MLLIBSTAR_CHECK(i == words.size());
}

void SparkCluster::BeginStage(const std::string& label) {
  SimTime at = Barrier();
  if (sim_.membership().enabled()) {
    ApplyChurn(at);
    // Joiners sync up to the stage boundary; departed executors no
    // longer hold the barrier back. A churn-free stage re-barriers at
    // the same instant, recording nothing.
    at = Barrier();
  }
  trace().MarkStage(at, label);
  round_ = RoundProfile();
  round_.sim_start = Now();
  round_durations_.clear();
  round_covered_ = 0.0;
  round_wire_start_ = wire_;
}

SimTime SparkCluster::EndStage(const std::string& system, int round) {
  const SimTime now = Barrier();
  RoundProfile& p = round_;
  p.system = system;
  p.round = round;
  p.sim_end = now;
  for (double d : round_durations_) p.compute_sec += d;
  SetTaskSpread(&round_durations_, &p);
  const double span = std::max(0.0, p.sim_end - p.sim_start);
  p.comm_sec = std::max(0.0, span - round_covered_);
  p.wire = wire_.Since(round_wire_start_);
  rounds_.push_back(std::move(p));
  return now;
}

std::vector<WorkerStats> SparkCluster::RunOnWorkers(
    const std::string& detail,
    const std::function<WorkerStats(size_t)>& fn) {
  const size_t k = num_workers();
  std::vector<WorkerStats> stats(k);
  ScopedSpan span("workers:" + detail, "engine");
  EngineProfiler::Scope engine_prof(Subsystem::kEngine);
  // Phase 1 — the real math. Each callback writes only its own slot,
  // so the tasks are independent and may run on any host schedule.
  {
    ScopedSpan math_span("math:" + detail, "engine");
    EngineProfiler::Scope kernel_prof(Subsystem::kKernels);
    if (pool_ != nullptr) {
      pool_->ParallelFor(k, [&](size_t r) { stats[r] = fn(r); });
    } else {
      for (size_t r = 0; r < k; ++r) stats[r] = fn(r);
    }
    EngineProfiler::Get().AddEvents(Subsystem::kKernels, k);
  }
  // Phase 2 — virtual time. All shared-stream draws (task failures,
  // straggler jitter, fault-plan events) and clock/trace updates happen
  // here, on the calling thread, in fixed worker order: the simulated
  // outcome is a pure function of the config seeds, never of the host
  // schedule. Faults and recovery cost virtual time only — the
  // host-side math from phase 1 stays the ground truth, which is what
  // makes the bit-identity tests possible.
  FaultInjector& faults = sim_.faults();
  MembershipTracker& membership = sim_.membership();
  const ClusterConfig& cfg = sim_.config();
  if (membership.enabled() && membership.num_active() < k) {
    ++membership.stats().degraded_rounds;
  }

  struct TaskPlan {
    SimTime start = 0.0;
    SimTime end = 0.0;
    uint64_t work = 0;
    bool crashed = false;
    SimTime crash_at = 0.0;
    size_t host = 0;
  };
  std::vector<TaskPlan> plan(k);

  // host_free[h]: when executor h is next free to run another
  // partition or host recovery. With a full fleet
  // every executor hosts exactly its own partition and this matches
  // the per-task availability of the fixed-membership engine.
  std::vector<SimTime> host_free(k);
  std::vector<bool> host_crashed(k, false);
  for (size_t h = 0; h < k; ++h) host_free[h] = sim_.worker(h).clock;

  // Pass A — sequential draws. Task-failure retries (Spark lineage
  // recovery: a failed task re-executes from its cached partition after
  // a scheduling delay) commit immediately; the primary attempt is only
  // planned, so pass B can replace it. Partitions run
  // on their assigned host; a migrated partition pays its lineage
  // rebuild (jittered from the membership stream, so churn never
  // shifts the jitter/failure streams) before its first task.
  for (size_t r = 0; r < k; ++r) {
    const uint64_t work = stats[r].work_units;
    const size_t h = assign_[r];
    SimNode& worker = sim_.worker(h);
    worker.clock = host_free[h];
    if (needs_rebuild_[r]) {
      const double rebuild_dur =
          static_cast<double>(work) / worker.compute_speed *
          membership.NextRecoveryJitter(cfg.straggler_sigma);
      trace().Record(worker.name, worker.clock, worker.clock + rebuild_dur,
                     ActivityKind::kRecompute, detail + "/churn-rebuild");
      ++faults.stats().lineage_recomputes;
      worker.clock += rebuild_dur;
      needs_rebuild_[r] = false;
    }
    while (sim_.NextTaskFailure()) {
      const SimTime fail_at =
          worker.clock + cfg.task_restart_seconds;
      trace().Record(worker.name, worker.clock, fail_at,
                     ActivityKind::kRetry, detail + "/task-retry");
      ++wire_.retries;
      worker.clock = fail_at;
      sim_.ChargeCompute(&worker, work, sim_.NextRetryJitter(),
                         detail + "/retry");
    }
    TaskPlan& p = plan[r];
    p.work = work;
    p.host = h;
    p.start = worker.clock;
    p.end = p.start + static_cast<double>(work) / worker.compute_speed *
                          sim_.NextJitter();
    p.crashed = faults.WorkerCrashes(h, p.start, p.end, &p.crash_at);
    host_free[h] = p.crashed ? p.crash_at +
                                   faults.plan().executor_restart_seconds
                             : p.end;
    if (p.crashed) host_crashed[h] = true;
    worker.clock = p.start;
  }

  // Pass B — executor loss. The partial result dies with the executor;
  // a surviving worker rebuilds the lost partition via lineage (charged
  // at the task's work again) and re-executes the task. The host-side
  // result from phase 1 already exists, so only virtual time is paid.
  for (size_t r = 0; r < k; ++r) {
    if (!plan[r].crashed) continue;
    const TaskPlan& p = plan[r];
    SimNode& worker = sim_.worker(p.host);
    if (p.crash_at > p.start) {
      trace().Record(worker.name, p.start, p.crash_at,
                     ActivityKind::kCompute, detail + "/lost");
    }
    const SimTime up_at =
        p.crash_at + faults.plan().executor_restart_seconds;
    trace().Record(worker.name, p.crash_at, up_at, ActivityKind::kFault,
                   detail + "/executor-down");
    worker.clock = up_at;
    // Replacement: the earliest-available surviving participating
    // executor (ties to the lowest index); the restarted executor
    // itself when alone.
    size_t repl = p.host;
    for (size_t h2 = 0; h2 < k; ++h2) {
      if (h2 == p.host || host_crashed[h2]) continue;
      if (!membership.IsActive(h2)) continue;
      if (repl == p.host || host_free[h2] < host_free[repl]) repl = h2;
    }
    SimNode& host = sim_.worker(repl);
    const SimTime t0 = std::max(host_free[repl], p.crash_at);
    const double rebuild_dur = static_cast<double>(p.work) /
                               host.compute_speed * sim_.NextRetryJitter();
    trace().Record(host.name, t0, t0 + rebuild_dur,
                   ActivityKind::kRecompute, detail + "/lineage-rebuild");
    ++faults.stats().lineage_recomputes;
    const double rerun_dur = static_cast<double>(p.work) /
                             host.compute_speed * sim_.NextRetryJitter();
    trace().Record(host.name, t0 + rebuild_dur,
                   t0 + rebuild_dur + rerun_dur, ActivityKind::kCompute,
                   detail + "/rerun");
    host_free[repl] = t0 + rebuild_dur + rerun_dur;
  }

  // Pass C — commit the primary bars and final clocks, and close out
  // joiner catch-up latencies (admission to first completed task).
  for (size_t r = 0; r < k; ++r) {
    SimNode& worker = sim_.worker(plan[r].host);
    if (!plan[r].crashed) {
      trace().Record(worker.name, plan[r].start, plan[r].end,
                     ActivityKind::kCompute, detail);
      if (pending_catchup_[plan[r].host]) {
        membership.stats().catchup_latency_sum +=
            plan[r].end - admit_time_[plan[r].host];
        ++membership.stats().catchup_count;
        pending_catchup_[plan[r].host] = false;
      }
    }
  }
  for (size_t h = 0; h < k; ++h) {
    SimNode& worker = sim_.worker(h);
    worker.clock = std::max(worker.clock, host_free[h]);
  }
  if (span.active()) {
    EngineProfiler::Get().AddEvents(Subsystem::kEngine, k);
    SimTime sim_start = plan.empty() ? 0.0 : plan[0].start;
    SimTime sim_end = sim_start;
    for (size_t r = 0; r < k; ++r) {
      sim_start = std::min(sim_start, plan[r].start);
      sim_end = std::max(sim_end, sim_.worker(r).clock);
    }
    span.SetSimRange(sim_start, sim_end);
  }
  // The committed tasks join the open round: their durations, the time
  // finished tasks idled for this batch's slowest, and the span the
  // batch covered.
  SimTime first_start = 0.0;
  SimTime last_end = 0.0;
  bool any = false;
  for (size_t r = 0; r < k; ++r) {
    if (plan[r].crashed) continue;
    round_durations_.push_back(plan[r].end - plan[r].start);
    if (!any || plan[r].start < first_start) first_start = plan[r].start;
    if (!any || plan[r].end > last_end) last_end = plan[r].end;
    any = true;
  }
  if (any) {
    double wait = 0.0;
    for (size_t r = 0; r < k; ++r) {
      if (!plan[r].crashed) wait += last_end - plan[r].end;
    }
    round_.wait_sec += wait;
    round_covered_ += std::max(0.0, last_end - first_start);
  }
  return stats;
}

void SparkCluster::RunOnDriver(const std::string& detail,
                               uint64_t work_units) {
  sim_.ComputeExact(&sim_.driver(), work_units, ActivityKind::kUpdate,
                    detail);
}

void SparkCluster::TreeAggregate(uint64_t bytes, size_t num_aggregators,
                                 uint64_t merge_work_units,
                                 const std::string& detail) {
  // Only the participating executors take part; with a full fleet the
  // active list is the identity and nothing changes.
  const std::vector<size_t> active = ActiveWorkers();
  const size_t a = active.size();
  if (a == 0) return;
  num_aggregators = std::clamp<size_t>(num_aggregators, 1, a);
  const NetworkModel& net = sim_.network();
  EngineProfiler::Scope engine_prof(Subsystem::kEngine);
  // Level 1 moves (a - g) payloads, level 2 moves g: a total.
  wire_.tree_aggregate += bytes * a;
  EngineProfiler::Get().AddEvents(Subsystem::kEngine, 1);

  // Group workers round-robin onto aggregators (the first g active
  // workers act as the intermediate aggregators themselves, like MLlib
  // reusing executors).
  for (size_t g = 0; g < num_aggregators; ++g) {
    SimNode& agg = sim_.worker(active[g]);
    // Senders in this group, excluding the aggregator itself.
    size_t senders = 0;
    SimTime last_sender_ready = agg.clock;
    for (size_t pos = g; pos < a; pos += num_aggregators) {
      if (pos == g) continue;
      SimNode& sender = sim_.worker(active[pos]);
      const SimTime send_end = sender.clock + net.TransferTime(bytes);
      trace().Record(sender.name, sender.clock, send_end,
                     ActivityKind::kCommunicate, detail + "/send");
      sender.clock = send_end;
      last_sender_ready = std::max(last_sender_ready, sender.clock);
      ++senders;
    }
    if (senders > 0) {
      // The aggregator's inbound link serializes the payloads; the
      // earliest it can finish is when the slowest sender is done.
      const SimTime recv_start = std::max(agg.clock, last_sender_ready -
                                                         net.TransferTime(
                                                             bytes));
      const SimTime recv_end =
          std::max(last_sender_ready,
                   recv_start + net.SerializedTransferTime(bytes, senders));
      trace().Record(agg.name, agg.clock, recv_end,
                     ActivityKind::kCommunicate, detail + "/recv");
      agg.clock = recv_end;
      sim_.ComputeExact(&agg, merge_work_units * senders,
                        ActivityKind::kAggregate, detail + "/merge");
    }
  }

  // Aggregators forward their partial aggregate to the driver; the
  // driver's inbound link serializes them.
  SimNode& driver = sim_.driver();
  SimTime last_ready = driver.clock;
  for (size_t g = 0; g < num_aggregators; ++g) {
    SimNode& agg = sim_.worker(active[g]);
    const SimTime send_end = agg.clock + net.TransferTime(bytes);
    trace().Record(agg.name, agg.clock, send_end, ActivityKind::kCommunicate,
                   detail + "/to-driver");
    agg.clock = send_end;
    last_ready = std::max(last_ready, agg.clock);
  }
  const SimTime recv_start =
      std::max(driver.clock, last_ready - net.TransferTime(bytes));
  const SimTime recv_end = std::max(
      last_ready,
      recv_start + net.SerializedTransferTime(bytes, num_aggregators));
  trace().Record(driver.name, driver.clock, recv_end,
                 ActivityKind::kCommunicate, detail + "/gather");
  driver.clock = recv_end;
  sim_.ComputeExact(&driver, merge_work_units * num_aggregators,
                    ActivityKind::kAggregate, detail + "/final-merge");
}

void SparkCluster::Broadcast(uint64_t bytes, const std::string& detail) {
  const std::vector<size_t> active = ActiveWorkers();
  const size_t a = active.size();
  if (a == 0) return;
  const NetworkModel& net = sim_.network();
  SimNode& driver = sim_.driver();
  const SimTime start = driver.clock;
  EngineProfiler::Scope engine_prof(Subsystem::kEngine);
  wire_.broadcast += bytes * a;
  EngineProfiler::Get().AddEvents(Subsystem::kEngine, 1);

  // The driver's outbound link pushes a copies back-to-back; the i-th
  // participating worker's copy lands after i+1 payloads.
  for (size_t pos = 0; pos < a; ++pos) {
    SimNode& w = sim_.worker(active[pos]);
    const SimTime arrive =
        start + net.latency() +
        static_cast<double>(bytes) * static_cast<double>(pos + 1) /
            net.bandwidth();
    const SimTime recv_start = std::max(w.clock, start);
    const SimTime recv_end = std::max(arrive, recv_start);
    trace().Record(w.name, recv_start, recv_end, ActivityKind::kCommunicate,
                   detail + "/recv");
    w.clock = recv_end;
  }
  const SimTime send_end = start + net.SerializedTransferTime(bytes, a);
  trace().Record(driver.name, start, send_end, ActivityKind::kCommunicate,
                 detail + "/send");
  driver.clock = send_end;
}

void SparkCluster::ShuffleAllToAll(uint64_t bytes_per_peer,
                                   const std::string& detail) {
  const std::vector<size_t> active = ActiveWorkers();
  const size_t a = active.size();
  if (a <= 1) return;
  const NetworkModel& net = sim_.network();
  EngineProfiler::Scope engine_prof(Subsystem::kEngine);
  wire_.shuffle += bytes_per_peer * a * (a - 1);
  EngineProfiler::Get().AddEvents(Subsystem::kEngine, 1);

  // Shuffle fetch starts once all map outputs exist (stage boundary),
  // then every link moves (a-1) payloads; sends and receives overlap
  // on full-duplex links.
  const SimTime start = sim_.MaxWorkerClock();
  const SimTime end =
      start + net.SerializedTransferTime(bytes_per_peer, a - 1);
  for (size_t pos = 0; pos < a; ++pos) {
    SimNode& w = sim_.worker(active[pos]);
    if (w.clock < start) {
      trace().Record(w.name, w.clock, start, ActivityKind::kWait,
                     detail + "/fetch-wait");
      w.clock = start;
    }
    trace().Record(w.name, w.clock, end, ActivityKind::kCommunicate,
                   detail + "/shuffle");
    w.clock = end;
  }
}

SimTime SparkCluster::Barrier() { return sim_.Barrier(); }

}  // namespace mllibstar
