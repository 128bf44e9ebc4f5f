#ifndef MLLIBSTAR_SIM_TRACE_H_
#define MLLIBSTAR_SIM_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace mllibstar {

/// Simulated time in seconds.
using SimTime = double;

/// What a node was doing during a trace interval. These are the bar
/// colors of the paper's Figure 3 gantt charts.
enum class ActivityKind {
  kCompute,      ///< gradient / local model computation
  kCommunicate,  ///< sending or receiving over the network
  kAggregate,    ///< reducing gradients or averaging models
  kUpdate,       ///< applying an update to the global model
  kWait,         ///< blocked on a barrier or on the driver
  kRetry,        ///< rescheduling delay of a failed task
  kFault,        ///< crash downtime of an executor
  kRecompute,    ///< rebuild or re-run of work a crash or churn lost
  kMembershipJoin,     ///< new worker announcing itself, until admitted
  kMembershipLeave,    ///< departed node, until its first missed heartbeat
  kMembershipSuspect,  ///< suspicion window, until the detector evicts
  kMembershipRejoin,   ///< returning worker, until re-admitted
};

/// Single-letter code used by the ASCII gantt
/// ("C", "M", "A", "U", ".", "R", "X", "L", "J", "Q", "H", "B").
char ActivityCode(ActivityKind kind);

/// Full lowercase name ("compute", "communicate", ...) used by the
/// CSV/trace exporters.
const char* ActivityName(ActivityKind kind);

/// One bar of the gantt chart: `node` did `kind` during [start, end).
struct TraceEvent {
  std::string node;
  SimTime start = 0.0;
  SimTime end = 0.0;
  ActivityKind kind = ActivityKind::kCompute;
  std::string detail;
};

/// Collects trace events and stage boundaries during a simulated run
/// and renders them as the paper's Figure 3 gantt charts (ASCII) or as
/// CSV for external plotting.
class TraceLog {
 public:
  /// Records one activity interval. Zero-length intervals are dropped.
  void Record(const std::string& node, SimTime start, SimTime end,
              ActivityKind kind, const std::string& detail);

  /// Marks a Spark stage boundary (the red/green vertical lines in
  /// Figure 3).
  void MarkStage(SimTime time, const std::string& label);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::pair<SimTime, std::string>>& stages() const {
    return stage_marks_;
  }

  /// Latest event end time (0 when empty).
  SimTime EndTime() const;

  /// Writes "node,start,end,kind,detail" rows.
  Status WriteCsv(const std::string& path) const;

  /// Renders a fixed-width ASCII gantt chart: one row per node (rows
  /// ordered by first appearance), `width` characters spanning
  /// [0, EndTime()). Cell characters come from ActivityCode; idle
  /// time renders as space.
  std::string RenderAscii(size_t width = 100) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<SimTime, std::string>> stage_marks_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_TRACE_H_
