#include "sim/gantt_svg.h"

#include <gtest/gtest.h>

#include <fstream>

namespace mllibstar {
namespace {

TraceLog MakeTrace() {
  TraceLog trace;
  trace.Record("executor1", 0.0, 2.0, ActivityKind::kCompute, "sgd");
  trace.Record("executor2", 0.5, 1.5, ActivityKind::kCommunicate, "shuffle");
  trace.Record("driver", 2.0, 3.0, ActivityKind::kUpdate, "avg");
  trace.MarkStage(0.0, "iter0");
  trace.MarkStage(2.0, "iter1");
  return trace;
}

TEST(GanttSvgTest, ContainsNodesBarsAndStages) {
  const std::string svg = RenderGanttSvg(MakeTrace());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("executor1"), std::string::npos);
  EXPECT_NE(svg.find("driver"), std::string::npos);
  // Three bars.
  size_t rects = 0;
  for (size_t pos = 0; (pos = svg.find("<rect", pos)) != std::string::npos;
       ++pos) {
    ++rects;
  }
  EXPECT_EQ(rects, 7u);  // background + 3 bars + 3 legend swatches
  // Two stage lines.
  size_t lines = 0;
  for (size_t pos = 0; (pos = svg.find("<line", pos)) != std::string::npos;
       ++pos) {
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(GanttSvgTest, StageLinesCanBeDisabled) {
  GanttSvgOptions options;
  options.draw_stage_lines = false;
  const std::string svg = RenderGanttSvg(MakeTrace(), options);
  EXPECT_EQ(svg.find("<line"), std::string::npos);
}

TEST(GanttSvgTest, TitleRendered) {
  GanttSvgOptions options;
  options.title = "Figure 3(a)";
  const std::string svg = RenderGanttSvg(MakeTrace(), options);
  EXPECT_NE(svg.find("Figure 3(a)"), std::string::npos);
}

TEST(GanttSvgTest, EmptyTraceIsValidSvg) {
  TraceLog trace;
  const std::string svg = RenderGanttSvg(trace);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(GanttSvgTest, LegendListsOnlyPresentKinds) {
  const std::string svg = RenderGanttSvg(MakeTrace());
  EXPECT_NE(svg.find(">compute</text>"), std::string::npos);
  EXPECT_NE(svg.find(">communicate</text>"), std::string::npos);
  EXPECT_NE(svg.find(">update</text>"), std::string::npos);
  // No fault/retry bars in this trace: their legend entries stay out.
  EXPECT_EQ(svg.find(">fault</text>"), std::string::npos);
  EXPECT_EQ(svg.find(">retry</text>"), std::string::npos);
}

TEST(GanttSvgTest, LegendCanBeDisabled) {
  GanttSvgOptions options;
  options.draw_legend = false;
  const std::string svg = RenderGanttSvg(MakeTrace(), options);
  size_t rects = 0;
  for (size_t pos = 0; (pos = svg.find("<rect", pos)) != std::string::npos;
       ++pos) {
    ++rects;
  }
  EXPECT_EQ(rects, 4u);  // background + 3 bars, no swatches
  EXPECT_EQ(svg.find(">compute</text>"), std::string::npos);
}

TEST(GanttSvgTest, FaultBarsGetTheirOwnColorsAndLegendEntries) {
  TraceLog trace;
  trace.Record("w", 0.0, 1.0, ActivityKind::kRetry, "task-retry");
  trace.Record("w", 1.0, 2.0, ActivityKind::kFault, "executor-down");
  trace.Record("w", 2.0, 3.0, ActivityKind::kRecompute, "lineage-rebuild");
  const std::string svg = RenderGanttSvg(trace);
  EXPECT_NE(svg.find("#e8845a"), std::string::npos);  // retry
  EXPECT_NE(svg.find("#c0392b"), std::string::npos);  // fault
  EXPECT_NE(svg.find("#2a8f8f"), std::string::npos);  // recompute
  EXPECT_NE(svg.find(">retry</text>"), std::string::npos);
  EXPECT_NE(svg.find(">fault</text>"), std::string::npos);
  EXPECT_NE(svg.find(">recompute</text>"), std::string::npos);
}

TEST(GanttSvgTest, MembershipBarsGetTheirOwnColorsAndLegendEntries) {
  TraceLog trace;
  trace.Record("w0", 0.0, 1.0, ActivityKind::kMembershipJoin, "announce");
  trace.Record("w1", 1.0, 2.0, ActivityKind::kMembershipLeave, "silent");
  trace.Record("w1", 2.0, 3.0, ActivityKind::kMembershipSuspect, "window");
  trace.Record("w2", 3.0, 4.0, ActivityKind::kMembershipRejoin, "return");
  const std::string svg = RenderGanttSvg(trace);
  EXPECT_NE(svg.find("#2e86de"), std::string::npos);  // join
  EXPECT_NE(svg.find("#5d4037"), std::string::npos);  // leave
  EXPECT_NE(svg.find("#f4c20d"), std::string::npos);  // suspected
  EXPECT_NE(svg.find("#e91e63"), std::string::npos);  // rejoin
  EXPECT_NE(svg.find(">join</text>"), std::string::npos);
  EXPECT_NE(svg.find(">leave</text>"), std::string::npos);
  EXPECT_NE(svg.find(">suspected</text>"), std::string::npos);
  EXPECT_NE(svg.find(">rejoin</text>"), std::string::npos);
}

TEST(GanttSvgTest, ActivityKindsGetDistinctColors) {
  TraceLog trace;
  trace.Record("n", 0.0, 1.0, ActivityKind::kCompute, "c");
  trace.Record("n", 1.0, 2.0, ActivityKind::kCommunicate, "m");
  trace.Record("n", 2.0, 3.0, ActivityKind::kWait, "w");
  const std::string svg = RenderGanttSvg(trace);
  EXPECT_NE(svg.find("#4c9f70"), std::string::npos);
  EXPECT_NE(svg.find("#4878cf"), std::string::npos);
  EXPECT_NE(svg.find("#d8d8d8"), std::string::npos);
}

TEST(GanttSvgTest, WritesFile) {
  const std::string path = testing::TempDir() + "/gantt.svg";
  ASSERT_TRUE(WriteGanttSvg(MakeTrace(), path).ok());
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("<svg"), std::string::npos);
}

TEST(GanttSvgTest, BadPathIsIoError) {
  EXPECT_EQ(WriteGanttSvg(MakeTrace(), "/no/dir/g.svg").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace mllibstar
