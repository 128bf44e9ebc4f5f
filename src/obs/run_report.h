#ifndef MLLIBSTAR_OBS_RUN_REPORT_H_
#define MLLIBSTAR_OBS_RUN_REPORT_H_

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "core/convergence.h"
#include "obs/round_profile.h"
#include "obs/telemetry.h"
#include "sim/fault_plan.h"
#include "sim/membership.h"
#include "sim/trace.h"

namespace mllibstar {

/// The run facts a RunReport is built from, decoupled from
/// train/TrainResult so obs does not depend on the training layer
/// (train/report.h provides WriteRunReport(TrainResult) which fills
/// this in). Pointers may be null; the corresponding report sections
/// are omitted.
struct RunInfo {
  std::string system;
  int comm_steps = 0;
  double sim_seconds = 0.0;
  uint64_t total_bytes = 0;
  uint64_t total_model_updates = 0;
  bool diverged = false;
  const ConvergenceCurve* curve = nullptr;
  const FaultStats* faults = nullptr;
  const MembershipStats* membership = nullptr;
  const TraceLog* trace = nullptr;
  const std::vector<RoundProfile>* rounds = nullptr;
};

/// Builds the unified per-run report: the TrainResult headline numbers
/// and curve, per-node utilization from the trace (via TraceSummary),
/// fault/recovery and membership counts, the round profiles with the
/// windowed series computed from them and the curve
/// (obs/time_series.h), and — when `telemetry` is supplied — the
/// host-time profiler and the span buffer accounting. Every section but
/// those two is a function of the run's result alone, so it reads the
/// same whether or not telemetry recorded. One file answers "where did
/// the time and bytes go".
JsonValue BuildRunReport(const RunInfo& info,
                         const Telemetry* telemetry = nullptr);

/// Pretty-prints BuildRunReport to `path`.
Status WriteRunReportJson(const std::string& path, const RunInfo& info,
                          const Telemetry* telemetry = nullptr);

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_RUN_REPORT_H_
