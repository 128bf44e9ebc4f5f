#ifndef MLLIBSTAR_TRAIN_REPORT_H_
#define MLLIBSTAR_TRAIN_REPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/convergence.h"
#include "train/trainer.h"

namespace mllibstar {

/// Writes a set of convergence curves as long-format CSV
/// ("system,comm_step,time_sec,objective") for external plotting.
Status WriteCurvesCsv(const std::string& path,
                      const std::vector<ConvergenceCurve>& curves);

/// The paper measures speedups "when the accuracy loss (compared to
/// the optimum) is 0.01": the target objective is the best objective
/// any participating system reached, plus `accuracy_loss`.
double TargetObjective(const std::vector<ConvergenceCurve>& curves,
                       double accuracy_loss = 0.01);

/// Formats one comparison row: for each curve, steps-to-target and
/// time-to-target (or "n/a"), suitable for printing under a header.
std::string ComparisonRow(const std::vector<ConvergenceCurve>& curves,
                          double target);

/// Writes the unified per-run RunReport JSON (obs/run_report.h) for a
/// finished training run: headline numbers, curve, per-node
/// utilization, fault and membership stats, round profiles and windowed
/// series, and — when telemetry was enabled during the run — the
/// host-time profile and span accounting.
Status WriteRunReport(const TrainResult& result, const std::string& path);

}  // namespace mllibstar

#endif  // MLLIBSTAR_TRAIN_REPORT_H_
