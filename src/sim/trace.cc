#include "sim/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/strings.h"

namespace mllibstar {

char ActivityCode(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kCompute:
      return 'C';
    case ActivityKind::kCommunicate:
      return 'M';
    case ActivityKind::kAggregate:
      return 'A';
    case ActivityKind::kUpdate:
      return 'U';
    case ActivityKind::kWait:
      return '.';
    case ActivityKind::kRetry:
      return 'R';
    case ActivityKind::kFault:
      return 'X';
    case ActivityKind::kRecompute:
      return 'L';
    case ActivityKind::kMembershipJoin:
      return 'J';
    case ActivityKind::kMembershipLeave:
      return 'Q';
    case ActivityKind::kMembershipSuspect:
      return 'H';
    case ActivityKind::kMembershipRejoin:
      return 'B';
  }
  return '?';
}

const char* ActivityName(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kCompute:
      return "compute";
    case ActivityKind::kCommunicate:
      return "communicate";
    case ActivityKind::kAggregate:
      return "aggregate";
    case ActivityKind::kUpdate:
      return "update";
    case ActivityKind::kWait:
      return "wait";
    case ActivityKind::kRetry:
      return "retry";
    case ActivityKind::kFault:
      return "fault";
    case ActivityKind::kRecompute:
      return "recompute";
    case ActivityKind::kMembershipJoin:
      return "join";
    case ActivityKind::kMembershipLeave:
      return "leave";
    case ActivityKind::kMembershipSuspect:
      return "suspected";
    case ActivityKind::kMembershipRejoin:
      return "rejoin";
  }
  return "unknown";
}

void TraceLog::Record(const std::string& node, SimTime start, SimTime end,
                      ActivityKind kind, const std::string& detail) {
  if (end <= start) return;
  events_.push_back({node, start, end, kind, detail});
}

void TraceLog::MarkStage(SimTime time, const std::string& label) {
  stage_marks_.emplace_back(time, label);
}

SimTime TraceLog::EndTime() const {
  SimTime latest = 0.0;
  for (const TraceEvent& e : events_) latest = std::max(latest, e.end);
  return latest;
}

Status TraceLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open: " + path);
  out << "node,start,end,kind,detail\n";
  for (const TraceEvent& e : events_) {
    out << CsvEscapeField(e.node) << ',' << FormatDouble(e.start, 9) << ','
        << FormatDouble(e.end, 9) << ',' << ActivityCode(e.kind) << ','
        << CsvEscapeField(e.detail) << '\n';
  }
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

std::string TraceLog::RenderAscii(size_t width) const {
  const SimTime total = EndTime();
  std::ostringstream os;
  if (total <= 0.0 || width == 0) return "";

  // Node rows in order of first appearance.
  std::vector<std::string> nodes;
  size_t name_width = 0;
  for (const TraceEvent& e : events_) {
    if (std::find(nodes.begin(), nodes.end(), e.node) == nodes.end()) {
      nodes.push_back(e.node);
      name_width = std::max(name_width, e.node.size());
    }
  }

  const double dt = total / static_cast<double>(width);
  for (const std::string& node : nodes) {
    std::string row(width, ' ');
    for (const TraceEvent& e : events_) {
      if (e.node != node) continue;
      size_t first = static_cast<size_t>(e.start / dt);
      size_t last = static_cast<size_t>(e.end / dt);
      first = std::min(first, width - 1);
      last = std::min(last, width - 1);
      for (size_t c = first; c <= last; ++c) row[c] = ActivityCode(e.kind);
    }
    os << node;
    os << std::string(name_width - node.size() + 1, ' ');
    os << '|' << row << "|\n";
  }
  // `width - 8` underflows for width < 8 (size_t); clamp the axis
  // padding to at least one space instead.
  os << std::string(name_width + 1, ' ') << '0'
     << std::string(width > 8 ? width - 8 : 1, ' ')
     << FormatDouble(total, 4) << "s\n";
  os << "legend: C=compute M=communicate A=aggregate U=update .=wait "
        "R=retry X=fault L=recompute J=join Q=leave H=suspected "
        "B=rejoin\n";
  return os.str();
}

}  // namespace mllibstar
