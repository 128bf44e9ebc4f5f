#ifndef MLLIBSTAR_SIM_GANTT_SVG_H_
#define MLLIBSTAR_SIM_GANTT_SVG_H_

#include <string>

#include "common/status.h"
#include "sim/trace.h"

namespace mllibstar {

/// Options for the SVG gantt renderer.
struct GanttSvgOptions {
  int width_px = 960;
  int row_height_px = 22;
  int label_width_px = 90;
  std::string title;
  bool draw_stage_lines = true;  ///< the paper's red stage boundaries
  /// Color legend under the time axis, one swatch per activity kind
  /// that actually occurs in the trace (fault/retry/recompute bars
  /// are distinguishable at a glance).
  bool draw_legend = true;
};

/// Renders a trace as an SVG gantt chart in the style of the paper's
/// Figure 3: one row per node (first-appearance order), colored bars
/// per activity, vertical stage lines, and a time axis.
std::string RenderGanttSvg(const TraceLog& trace,
                           const GanttSvgOptions& options = {});

/// Renders and writes the SVG to `path`.
Status WriteGanttSvg(const TraceLog& trace, const std::string& path,
                     const GanttSvgOptions& options = {});

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_GANTT_SVG_H_
