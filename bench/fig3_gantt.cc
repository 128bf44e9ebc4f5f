// Figure 3: gantt charts of MGD execution in (a) MLlib, (b) MLlib +
// model averaging, and (c) MLlib*, on a kdd12-shaped SVM workload
// with 8 executors (the paper's Cluster 1 setup).
//
// Expected shapes (paper §IV-A):
//  (a) the driver and the intermediate aggregators are busy while
//      everyone else waits (bottlenecks B1 and B2);
//  (b) same communication pattern, similar per-step timing;
//  (c) all executors busy almost all the time, no driver.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "sim/gantt_svg.h"
#include "data/synthetic.h"
#include "train/trainer.h"

int main(int argc, char** argv) {
  using namespace mllibstar;

  FlagParser flags(
      "Figure 3: gantt charts of MGD execution in MLlib, MLlib+MA and "
      "MLlib* on a kdd12-shaped SVM workload with 8 executors.");
  flags.AddDouble("scale", 3e-4, "synthetic dataset scale factor");
  flags.AddInt64("steps", 3, "communication steps per run");
  flags.AddBool("chrome-trace", false,
                "export a Perfetto-loadable Chrome trace per variant");
  flags.AddBool("run-report", false,
                "export a unified RunReport JSON per variant");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }
  const bool chrome_trace = flags.GetBool("chrome-trace");
  const bool run_report = flags.GetBool("run-report");
  if (chrome_trace || run_report) Telemetry::Get().set_enabled(true);

  const Dataset data =
      GenerateSynthetic(Kdd12Spec(flags.GetDouble("scale")));
  const ClusterConfig cluster = ClusterConfig::Cluster1(8);
  std::printf("Figure 3 — gantt charts, kdd12-shaped SVM, 8 executors\n");
  std::printf("workload: %zu x %zu\n", data.size(), data.num_features());

  TrainerConfig config;
  config.loss = LossKind::kHinge;
  config.base_lr = 0.2;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.01;
  config.max_comm_steps = static_cast<int>(flags.GetInt64("steps"));

  const struct {
    SystemKind kind;
    const char* caption;
  } variants[] = {
      {SystemKind::kMllib, "(a) MLlib (SendGradient + treeAggregate)"},
      {SystemKind::kMllibMa, "(b) MLlib + model averaging"},
      {SystemKind::kMllibStar, "(c) MLlib* (Reduce-Scatter + AllGather)"},
  };

  for (const auto& variant : variants) {
    // Per-variant telemetry window so each report's host spans and
    // profile cover exactly one run.
    Telemetry::Get().Clear();
    const TrainResult result =
        MakeTrainer(variant.kind, config)->Train(data, cluster);
    std::printf("\n%s — %d steps in %.1f simulated seconds\n",
                variant.caption, result.comm_steps, result.sim_seconds);
    std::printf("%s", result.trace.RenderAscii(96).c_str());
    const std::string stem =
        std::string("fig3_trace_") + SystemName(variant.kind);
    const std::string safe = bench::SanitizeStem(stem);
    const Status st =
        result.trace.WriteCsv(bench::ResultsDir() + "/" + safe + ".csv");
    if (st.ok()) {
      std::printf("  [trace written to results/%s.csv]\n", safe.c_str());
    }
    GanttSvgOptions svg_options;
    svg_options.title = variant.caption;
    const Status svg_st = WriteGanttSvg(
        result.trace, bench::ResultsDir() + "/" + safe + ".svg",
        svg_options);
    if (svg_st.ok()) {
      std::printf("  [gantt written to results/%s.svg]\n", safe.c_str());
    }
    bench::ExportRunArtifacts(result, stem, chrome_trace, run_report);
  }
  return 0;
}
