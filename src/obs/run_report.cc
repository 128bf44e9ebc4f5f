#include "obs/run_report.h"

#include <algorithm>
#include <fstream>

#include "obs/engine_profiler.h"
#include "obs/time_series.h"
#include "sim/trace_summary.h"

namespace mllibstar {

namespace {

/// Rounds a report keeps; `rounds_dropped` counts the rest.
constexpr size_t kReportRounds = 4096;

JsonValue NodeSummaryJson(const NodeSummary& n) {
  JsonValue out = JsonValue::Object();
  out.Set("compute", JsonValue::Number(n.compute));
  out.Set("communicate", JsonValue::Number(n.communicate));
  out.Set("aggregate", JsonValue::Number(n.aggregate));
  out.Set("update", JsonValue::Number(n.update));
  out.Set("wait", JsonValue::Number(n.wait));
  out.Set("retry", JsonValue::Number(n.retry));
  out.Set("fault", JsonValue::Number(n.fault));
  out.Set("recompute", JsonValue::Number(n.recompute));
  out.Set("busy", JsonValue::Number(n.busy()));
  out.Set("utilization", JsonValue::Number(n.utilization()));
  return out;
}

const char* SeriesAggName(SeriesAgg agg) {
  switch (agg) {
    case SeriesAgg::kDelta:
      return "delta";
    case SeriesAgg::kMean:
      return "mean";
    case SeriesAgg::kMax:
      return "max";
  }
  return "unknown";
}

JsonValue SeriesSnapshotJson(const SeriesSnapshot& s) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::Str(s.name));
  out.Set("agg", JsonValue::Str(SeriesAggName(s.agg)));
  out.Set("window_sec", JsonValue::Number(s.window_sec));
  out.Set("dropped", JsonValue::Number(s.dropped));
  JsonValue points = JsonValue::Array();
  for (const SeriesPoint& p : s.points) {
    JsonValue point = JsonValue::Object();
    point.Set("t0", JsonValue::Number(p.t0));
    point.Set("t1", JsonValue::Number(p.t1));
    point.Set("value", JsonValue::Number(p.value));
    if (p.count > 0) point.Set("count", JsonValue::Number(p.count));
    points.Append(std::move(point));
  }
  out.Set("points", std::move(points));
  return out;
}

JsonValue RoundProfileJson(const RoundProfile& r) {
  JsonValue out = JsonValue::Object();
  out.Set("system", JsonValue::Str(r.system));
  out.Set("round", JsonValue::Number(static_cast<int64_t>(r.round)));
  out.Set("sim_start", JsonValue::Number(r.sim_start));
  out.Set("sim_end", JsonValue::Number(r.sim_end));
  out.Set("tasks", JsonValue::Number(r.tasks));
  out.Set("task_p50", JsonValue::Number(r.task_p50));
  out.Set("task_p95", JsonValue::Number(r.task_p95));
  out.Set("task_max", JsonValue::Number(r.task_max));
  out.Set("compute_sec", JsonValue::Number(r.compute_sec));
  out.Set("wait_sec", JsonValue::Number(r.wait_sec));
  out.Set("comm_sec", JsonValue::Number(r.comm_sec));
  JsonValue bytes = JsonValue::Object();
  bytes.Set("broadcast", JsonValue::Number(r.wire.broadcast));
  bytes.Set("tree_aggregate", JsonValue::Number(r.wire.tree_aggregate));
  bytes.Set("shuffle", JsonValue::Number(r.wire.shuffle));
  bytes.Set("pull", JsonValue::Number(r.wire.pull));
  bytes.Set("push", JsonValue::Number(r.wire.push));
  out.Set("bytes", std::move(bytes));
  out.Set("retries", JsonValue::Number(r.wire.retries));
  if (r.staleness_samples > 0) {
    JsonValue stale = JsonValue::Object();
    stale.Set("samples", JsonValue::Number(r.staleness_samples));
    stale.Set("mean", JsonValue::Number(r.staleness_mean));
    stale.Set("max", JsonValue::Number(r.staleness_max));
    out.Set("staleness", std::move(stale));
  }
  return out;
}

}  // namespace

JsonValue BuildRunReport(const RunInfo& info, const Telemetry* telemetry) {
  JsonValue report = JsonValue::Object();
  report.Set("schema", JsonValue::Str("mllibstar.run_report.v2"));
  report.Set("system", JsonValue::Str(info.system));

  JsonValue result = JsonValue::Object();
  result.Set("comm_steps", JsonValue::Number(static_cast<int64_t>(
                               info.comm_steps)));
  result.Set("sim_seconds", JsonValue::Number(info.sim_seconds));
  result.Set("total_bytes", JsonValue::Number(info.total_bytes));
  result.Set("total_model_updates",
             JsonValue::Number(info.total_model_updates));
  result.Set("diverged", JsonValue::Bool(info.diverged));
  report.Set("result", std::move(result));

  if (info.curve != nullptr) {
    JsonValue curve = JsonValue::Object();
    curve.Set("label", JsonValue::Str(info.curve->label()));
    JsonValue points = JsonValue::Array();
    for (const ConvergencePoint& p : info.curve->points()) {
      JsonValue point = JsonValue::Object();
      point.Set("comm_step",
                JsonValue::Number(static_cast<int64_t>(p.comm_step)));
      point.Set("time_sec", JsonValue::Number(p.time_sec));
      point.Set("objective", JsonValue::Number(p.objective));
      points.Append(std::move(point));
    }
    curve.Set("points", std::move(points));
    curve.Set("final_objective",
              JsonValue::Number(info.curve->FinalObjective()));
    report.Set("curve", std::move(curve));
  }

  if (info.trace != nullptr) {
    const TraceSummary summary = Summarize(*info.trace);
    JsonValue util = JsonValue::Object();
    util.Set("makespan", JsonValue::Number(summary.makespan));
    util.Set("cluster", NodeSummaryJson(summary.cluster));
    JsonValue per_node = JsonValue::Object();
    for (const auto& [node, ns] : summary.per_node) {
      per_node.Set(node, NodeSummaryJson(ns));
    }
    util.Set("per_node", std::move(per_node));
    report.Set("utilization", std::move(util));
  }

  if (info.faults != nullptr) {
    const FaultStats& f = *info.faults;
    JsonValue faults = JsonValue::Object();
    faults.Set("worker_crashes", JsonValue::Number(f.worker_crashes));
    faults.Set("server_crashes", JsonValue::Number(f.server_crashes));
    faults.Set("lineage_recomputes", JsonValue::Number(f.lineage_recomputes));
    faults.Set("messages_dropped", JsonValue::Number(f.messages_dropped));
    faults.Set("ps_retries", JsonValue::Number(f.ps_retries));
    report.Set("faults", std::move(faults));
  }

  if (info.membership != nullptr) {
    const MembershipStats& m = *info.membership;
    JsonValue membership = JsonValue::Object();
    membership.Set("joins", JsonValue::Number(m.joins));
    membership.Set("leaves", JsonValue::Number(m.leaves));
    membership.Set("rejoins", JsonValue::Number(m.rejoins));
    membership.Set("suspicions", JsonValue::Number(m.suspicions));
    membership.Set("server_leaves", JsonValue::Number(m.server_leaves));
    membership.Set("partitions_migrated",
                   JsonValue::Number(m.partitions_migrated));
    membership.Set("shard_migrations", JsonValue::Number(m.shard_migrations));
    membership.Set("degraded_rounds", JsonValue::Number(m.degraded_rounds));
    membership.Set("catchup_latency_sum",
                   JsonValue::Number(m.catchup_latency_sum));
    membership.Set("catchup_count", JsonValue::Number(m.catchup_count));
    membership.Set("min_active", JsonValue::Number(m.min_active));
    membership.Set("max_active", JsonValue::Number(m.max_active));
    report.Set("membership", std::move(membership));
  }

  // v2 sections: windowed series, per-round profiles, simulator
  // self-profile, and telemetry buffer accounting. v1 consumers ignore
  // unknown keys, so parse-back of old reports is unchanged.
  if (info.rounds != nullptr) {
    JsonValue series = JsonValue::Array();
    for (const SeriesSnapshot& s : WindowedSeries(*info.rounds, info.curve)) {
      series.Append(SeriesSnapshotJson(s));
    }
    report.Set("series", std::move(series));

    const size_t kept = std::min(info.rounds->size(), kReportRounds);
    JsonValue rounds = JsonValue::Array();
    for (size_t i = 0; i < kept; ++i) {
      rounds.Append(RoundProfileJson((*info.rounds)[i]));
    }
    report.Set("rounds", std::move(rounds));
    report.Set("rounds_dropped", JsonValue::Number(static_cast<uint64_t>(
                                     info.rounds->size() - kept)));
  }

  if (telemetry != nullptr) {
    const EngineProfiler& prof = EngineProfiler::Get();
    JsonValue profiler = JsonValue::Object();
    JsonValue subsystems = JsonValue::Array();
    for (const SubsystemStats& s : prof.Snapshot()) {
      JsonValue sub = JsonValue::Object();
      sub.Set("name", JsonValue::Str(s.name));
      sub.Set("host_us", JsonValue::Number(s.host_us));
      sub.Set("events", JsonValue::Number(s.events));
      subsystems.Append(std::move(sub));
    }
    profiler.Set("subsystems", std::move(subsystems));
    profiler.Set("total_host_us", JsonValue::Number(prof.TotalHostUs()));
    profiler.Set("total_events", JsonValue::Number(prof.TotalEvents()));
    if (info.sim_seconds > 0.0) {
      profiler.Set("host_us_per_sim_sec",
                   JsonValue::Number(static_cast<double>(prof.TotalHostUs()) /
                                     info.sim_seconds));
    }
    report.Set("profiler", std::move(profiler));

    JsonValue buffers = JsonValue::Object();
    buffers.Set("spans", JsonValue::Number(
                             static_cast<uint64_t>(telemetry->spans().size())));
    buffers.Set("span_capacity",
                JsonValue::Number(
                    static_cast<uint64_t>(telemetry->span_capacity())));
    buffers.Set("spans_dropped", JsonValue::Number(telemetry->spans_dropped()));
    report.Set("telemetry", std::move(buffers));
  }

  return report;
}

Status WriteRunReportJson(const std::string& path, const RunInfo& info,
                          const Telemetry* telemetry) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << BuildRunReport(info, telemetry).Dump(2) << '\n';
  out.close();
  if (!out) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

}  // namespace mllibstar
