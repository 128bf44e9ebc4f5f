#include "sim/trace_summary.h"

#include <sstream>

namespace mllibstar {
namespace {

void Accumulate(NodeSummary* summary, ActivityKind kind, double duration) {
  switch (kind) {
    case ActivityKind::kCompute:
      summary->compute += duration;
      break;
    case ActivityKind::kCommunicate:
      summary->communicate += duration;
      break;
    case ActivityKind::kAggregate:
      summary->aggregate += duration;
      break;
    case ActivityKind::kUpdate:
      summary->update += duration;
      break;
    case ActivityKind::kWait:
      summary->wait += duration;
      break;
    case ActivityKind::kRetry:
      summary->retry += duration;
      break;
    case ActivityKind::kFault:
      summary->fault += duration;
      break;
    case ActivityKind::kRecompute:
      summary->recompute += duration;
      break;
    case ActivityKind::kMembershipJoin:
    case ActivityKind::kMembershipLeave:
    case ActivityKind::kMembershipSuspect:
    case ActivityKind::kMembershipRejoin:
      summary->membership += duration;
      break;
  }
}

}  // namespace

NodeSummary TraceSummary::Node(const std::string& name) const {
  const auto it = per_node.find(name);
  return it == per_node.end() ? NodeSummary{} : it->second;
}

TraceSummary Summarize(const TraceLog& trace) {
  TraceSummary summary;
  summary.makespan = trace.EndTime();
  for (const TraceEvent& e : trace.events()) {
    const double duration = e.end - e.start;
    Accumulate(&summary.per_node[e.node], e.kind, duration);
    Accumulate(&summary.cluster, e.kind, duration);
  }
  return summary;
}

std::string SummaryTable(const TraceSummary& summary) {
  std::ostringstream os;
  os.precision(4);
  os << "node          busy      wait      util\n";
  for (const auto& [name, node] : summary.per_node) {
    os << name;
    for (size_t i = name.size(); i < 12; ++i) os << ' ';
    os << "  " << node.busy() << "  " << node.wait << "  "
       << 100.0 * node.utilization() << "%\n";
  }
  os << "makespan " << summary.makespan << "s, cluster utilization "
     << 100.0 * summary.cluster.utilization() << "%\n";
  return os.str();
}

}  // namespace mllibstar
