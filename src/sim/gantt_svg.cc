#include "sim/gantt_svg.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/strings.h"

namespace mllibstar {
namespace {

const char* ActivityColor(ActivityKind kind) {
  switch (kind) {
    case ActivityKind::kCompute:
      return "#4c9f70";  // green
    case ActivityKind::kCommunicate:
      return "#4878cf";  // blue
    case ActivityKind::kAggregate:
      return "#e0a83c";  // amber
    case ActivityKind::kUpdate:
      return "#b05bbf";  // purple
    case ActivityKind::kWait:
      return "#d8d8d8";  // light gray
    case ActivityKind::kRetry:
      return "#e8845a";  // salmon
    case ActivityKind::kFault:
      return "#c0392b";  // dark red
    case ActivityKind::kRecompute:
      return "#2a8f8f";  // teal
    case ActivityKind::kMembershipJoin:
      return "#2e86de";  // bright blue
    case ActivityKind::kMembershipLeave:
      return "#5d4037";  // brown
    case ActivityKind::kMembershipSuspect:
      return "#f4c20d";  // warning yellow
    case ActivityKind::kMembershipRejoin:
      return "#e91e63";  // magenta
  }
  return "#000000";
}

const char* ActivityLabel(ActivityKind kind) {
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
  return "?";
}

constexpr ActivityKind kAllKinds[] = {
    ActivityKind::kCompute,   ActivityKind::kCommunicate,
    ActivityKind::kAggregate, ActivityKind::kUpdate,
    ActivityKind::kWait,      ActivityKind::kRetry,
    ActivityKind::kFault,     ActivityKind::kRecompute,
    ActivityKind::kMembershipJoin,    ActivityKind::kMembershipLeave,
    ActivityKind::kMembershipSuspect, ActivityKind::kMembershipRejoin,
};

}  // namespace

std::string RenderGanttSvg(const TraceLog& trace,
                           const GanttSvgOptions& options) {
  const SimTime total = trace.EndTime();
  std::vector<std::string> nodes;
  for (const TraceEvent& e : trace.events()) {
    if (std::find(nodes.begin(), nodes.end(), e.node) == nodes.end()) {
      nodes.push_back(e.node);
    }
  }

  // The legend only lists kinds that occur, so faulty and fault-free
  // charts stay visually comparable.
  std::vector<ActivityKind> present;
  for (ActivityKind kind : kAllKinds) {
    for (const TraceEvent& e : trace.events()) {
      if (e.kind == kind) {
        present.push_back(kind);
        break;
      }
    }
  }

  const int header = options.title.empty() ? 10 : 34;
  const int axis_height = 24;
  const int legend_height =
      options.draw_legend && !present.empty() ? 22 : 0;
  const int chart_width = options.width_px - options.label_width_px - 10;
  const int height = header +
                     static_cast<int>(nodes.size()) * options.row_height_px +
                     axis_height + legend_height;

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
     << options.width_px << "\" height=\"" << height
     << "\" font-family=\"sans-serif\" font-size=\"11\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  if (!options.title.empty()) {
    os << "<text x=\"" << options.width_px / 2
       << "\" y=\"18\" text-anchor=\"middle\" font-size=\"14\">"
       << options.title << "</text>\n";
  }
  if (total <= 0.0 || nodes.empty()) {
    os << "</svg>\n";
    return os.str();
  }

  const double scale = static_cast<double>(chart_width) / total;
  auto x_of = [&](SimTime t) {
    return options.label_width_px + t * scale;
  };
  auto row_of = [&](const std::string& node) {
    const auto it = std::find(nodes.begin(), nodes.end(), node);
    return header + static_cast<int>(it - nodes.begin()) *
                        options.row_height_px;
  };

  // Row labels and separators.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int y = header + static_cast<int>(i) * options.row_height_px;
    os << "<text x=\"4\" y=\"" << y + options.row_height_px - 7 << "\">"
       << nodes[i] << "</text>\n";
  }

  // Activity bars.
  for (const TraceEvent& e : trace.events()) {
    const double x = x_of(e.start);
    const double w = std::max(0.5, (e.end - e.start) * scale);
    os << "<rect x=\"" << FormatDouble(x, 6) << "\" y=\""
       << row_of(e.node) + 2 << "\" width=\"" << FormatDouble(w, 6)
       << "\" height=\"" << options.row_height_px - 4 << "\" fill=\""
       << ActivityColor(e.kind) << "\"><title>" << e.detail << " ["
       << FormatDouble(e.start, 5) << "s, " << FormatDouble(e.end, 5)
       << "s]</title></rect>\n";
  }

  // Stage boundaries (the red vertical lines of Figure 3).
  if (options.draw_stage_lines) {
    const int y0 = header;
    const int y1 =
        header + static_cast<int>(nodes.size()) * options.row_height_px;
    for (const auto& [time, label] : trace.stages()) {
      const double x = x_of(time);
      os << "<line x1=\"" << FormatDouble(x, 6) << "\" y1=\"" << y0
         << "\" x2=\"" << FormatDouble(x, 6) << "\" y2=\"" << y1
         << "\" stroke=\"#cc3333\" stroke-width=\"1\"><title>" << label
         << "</title></line>\n";
    }
  }

  // Time axis.
  const int axis_y =
      header + static_cast<int>(nodes.size()) * options.row_height_px + 14;
  os << "<text x=\"" << options.label_width_px << "\" y=\"" << axis_y
     << "\">0s</text>\n";
  os << "<text x=\"" << options.width_px - 10 << "\" y=\"" << axis_y
     << "\" text-anchor=\"end\">" << FormatDouble(total, 5)
     << "s</text>\n";

  // Legend: one swatch + label per activity kind present in the trace.
  if (legend_height > 0) {
    const int ly = axis_y + 8;
    int lx = options.label_width_px;
    for (ActivityKind kind : present) {
      os << "<rect x=\"" << lx << "\" y=\"" << ly << "\" width=\"12\""
         << " height=\"12\" fill=\"" << ActivityColor(kind)
         << "\"/>\n";
      os << "<text x=\"" << lx + 16 << "\" y=\"" << ly + 10 << "\">"
         << ActivityLabel(kind) << "</text>\n";
      lx += 16 + 8 * static_cast<int>(std::string(ActivityLabel(kind)).size()) +
            12;
    }
  }
  os << "</svg>\n";
  return os.str();
}

Status WriteGanttSvg(const TraceLog& trace, const std::string& path,
                     const GanttSvgOptions& options) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << RenderGanttSvg(trace, options);
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace mllibstar
