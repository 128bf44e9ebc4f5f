#ifndef MLLIBSTAR_SIM_TRACE_SUMMARY_H_
#define MLLIBSTAR_SIM_TRACE_SUMMARY_H_

#include <map>
#include <string>

#include "sim/trace.h"

namespace mllibstar {

/// Aggregated time-by-activity for one node of a trace.
struct NodeSummary {
  double compute = 0.0;
  double communicate = 0.0;
  double aggregate = 0.0;
  double update = 0.0;
  double wait = 0.0;
  double retry = 0.0;        ///< backoff / rescheduling delay
  double fault = 0.0;        ///< crash downtime
  double recompute = 0.0;    ///< lineage rebuild / checkpoint restore
  double membership = 0.0;   ///< join/leave/suspicion detector windows

  /// Recovery work is real work (the cluster is burning cycles on it),
  /// so lineage recomputation counts as busy; downtime, backoff, and
  /// membership-transition windows count against utilization like wait.
  double busy() const {
    return compute + communicate + aggregate + update + recompute;
  }
  double total() const { return busy() + wait + retry + fault + membership; }
  /// Fraction of accounted time spent doing useful work.
  double utilization() const {
    const double t = total();
    return t > 0 ? busy() / t : 0.0;
  }
};

/// Whole-trace rollup: per-node summaries plus cluster aggregates.
/// This is the quantitative reading of the paper's Figure 3 — "the
/// executors have to wait" becomes a measurable wait fraction.
struct TraceSummary {
  std::map<std::string, NodeSummary> per_node;
  NodeSummary cluster;     ///< sums over all nodes
  SimTime makespan = 0.0;  ///< trace end time

  /// Summary for one node (zeros if absent).
  NodeSummary Node(const std::string& name) const;

  /// True if any event was recorded for `name`.
  bool HasNode(const std::string& name) const {
    return per_node.count(name) > 0;
  }
};

/// Computes the rollup of `trace`.
TraceSummary Summarize(const TraceLog& trace);

/// Renders a per-node utilization table ("node busy wait util%").
std::string SummaryTable(const TraceSummary& summary);

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_TRACE_SUMMARY_H_
