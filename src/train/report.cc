#include "train/report.h"

#include <limits>
#include <sstream>

#include "common/csv.h"
#include "common/strings.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"

namespace mllibstar {

Status WriteCurvesCsv(const std::string& path,
                      const std::vector<ConvergenceCurve>& curves) {
  MLLIBSTAR_ASSIGN_OR_RETURN(
      CsvWriter writer,
      CsvWriter::Open(path, {"system", "comm_step", "time_sec",
                             "objective"}));
  for (const ConvergenceCurve& curve : curves) {
    for (const ConvergencePoint& p : curve.points()) {
      writer.WriteRow({curve.label(), std::to_string(p.comm_step),
                       FormatDouble(p.time_sec, 9),
                       FormatDouble(p.objective, 9)});
    }
  }
  writer.Flush();
  return Status::Ok();
}

double TargetObjective(const std::vector<ConvergenceCurve>& curves,
                       double accuracy_loss) {
  double optimum = std::numeric_limits<double>::infinity();
  for (const ConvergenceCurve& curve : curves) {
    optimum = std::min(optimum, curve.BestObjective());
  }
  return optimum + accuracy_loss;
}

std::string ComparisonRow(const std::vector<ConvergenceCurve>& curves,
                          double target) {
  std::ostringstream os;
  for (const ConvergenceCurve& curve : curves) {
    os << curve.label() << ": ";
    const std::optional<int> steps = curve.StepsToReach(target);
    const std::optional<double> time = curve.TimeToReach(target);
    if (steps.has_value()) {
      os << *steps << " steps / " << FormatDouble(*time, 4) << "s";
    } else {
      os << "n/a";
    }
    os << "   ";
  }
  return os.str();
}

Status WriteRunReport(const TrainResult& result, const std::string& path) {
  RunInfo info;
  info.system = result.system;
  info.comm_steps = result.comm_steps;
  info.sim_seconds = result.sim_seconds;
  info.total_bytes = result.total_bytes;
  info.total_model_updates = result.total_model_updates;
  info.diverged = result.diverged;
  info.curve = &result.curve;
  info.faults = &result.faults;
  info.membership = &result.membership;
  info.trace = &result.trace;
  info.rounds = &result.rounds;
  Telemetry& obs = Telemetry::Get();
  return WriteRunReportJson(path, info, obs.enabled() ? &obs : nullptr);
}

}  // namespace mllibstar
