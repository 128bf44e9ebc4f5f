// Host-parallel scaling of the training hot path: sweeps
// host_threads x cluster workers on the Figure-4-shaped workload
// (synthetic avazu, hinge loss, MLlib* = the heaviest per-step local
// compute) and reports wall-clock seconds, speedup over the
// sequential run, and a checksum of the final weights — which must be
// identical across every host_threads value, since host parallelism
// is a pure wall-clock knob.
//
// Emits a machine-readable JSON report (default BENCH_hostpar.json)
// alongside the human-readable table. The achievable speedup is bound
// by the machine's cores; CI smoke-runs this with small settings.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

std::vector<size_t> ParseList(const std::string& text) {
  std::vector<size_t> values;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) values.push_back(std::stoul(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

struct RunResult {
  size_t workers = 0;
  size_t host_threads = 0;
  double wall_seconds = 0.0;
  double speedup = 1.0;
  double sim_seconds = 0.0;
  uint64_t checksum = 0;
  bool bit_identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "Host-parallel scaling sweep (host_threads x workers) on the "
      "fig4-shaped MLlib* workload; writes BENCH_hostpar.json.");
  flags.AddString("dataset", "avazu", "synthetic dataset spec name");
  flags.AddString("threads", "1,2,4,8", "host_threads values to sweep");
  flags.AddString("workers", "8,32", "cluster worker counts to sweep");
  flags.AddInt64("steps", 8, "communication steps per run");
  flags.AddDouble("scale", 1e-3, "synthetic dataset scale factor");
  flags.AddString("out", "BENCH_hostpar.json", "JSON report path");
  flags.AddBool("chrome-trace", false,
                "export a Perfetto-loadable Chrome trace per run");
  flags.AddBool("run-report", false,
                "export a unified RunReport JSON per run");
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

  const std::string dataset_name = flags.GetString("dataset");
  const Result<SyntheticSpec> spec =
      SpecByName(dataset_name, flags.GetDouble("scale"));
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  const Dataset data = GenerateSynthetic(*spec);
  const std::vector<size_t> thread_counts =
      ParseList(flags.GetString("threads"));
  const std::vector<size_t> worker_counts =
      ParseList(flags.GetString("workers"));

  std::printf("parallel_scaling: %s (%zu x %zu), %lld steps, host has %u "
              "hardware threads\n",
              dataset_name.c_str(), data.size(), data.num_features(),
              static_cast<long long>(flags.GetInt64("steps")),
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %12s %9s %10s %18s\n", "workers", "host_threads",
              "wall_sec", "speedup", "sim_sec", "weights_checksum");

  std::vector<RunResult> runs;
  bool all_identical = true;
  for (size_t workers : worker_counts) {
    const ClusterConfig cluster = ClusterConfig::Cluster1(workers);
    double sequential_wall = 0.0;
    uint64_t sequential_checksum = 0;
    for (size_t threads : thread_counts) {
      TrainerConfig config;
      config.loss = LossKind::kHinge;
      config.lr_schedule = LrScheduleKind::kInverseSqrt;
      config.base_lr = 0.3;
      config.max_comm_steps = static_cast<int>(flags.GetInt64("steps"));
      config.eval_every = config.max_comm_steps;  // eval off the hot path
      config.host_threads = threads;

      Telemetry::Get().Clear();
      Stopwatch watch;
      const TrainResult result =
          MakeTrainer(SystemKind::kMllibStar, config)->Train(data, cluster);
      RunResult run;
      run.workers = workers;
      run.host_threads = threads;
      run.wall_seconds = watch.ElapsedSeconds();
      run.sim_seconds = result.sim_seconds;
      run.checksum = bench::WeightsChecksum(result.final_weights);
      if (threads == thread_counts.front()) {
        sequential_wall = run.wall_seconds;
        sequential_checksum = run.checksum;
      }
      run.speedup =
          run.wall_seconds > 0 ? sequential_wall / run.wall_seconds : 1.0;
      run.bit_identical = run.checksum == sequential_checksum;
      all_identical = all_identical && run.bit_identical;
      std::printf("%8zu %12zu %12.3f %8.2fx %10.3f %#18llx%s\n", workers,
                  threads, run.wall_seconds, run.speedup, run.sim_seconds,
                  static_cast<unsigned long long>(run.checksum),
                  run.bit_identical ? "" : "  MISMATCH");
      runs.push_back(run);
      // Exports sit outside the timed window so they never skew
      // wall_seconds.
      char stem[64];
      std::snprintf(stem, sizeof(stem), "hostpar_w%zu_t%zu", workers,
                    threads);
      bench::ExportRunArtifacts(result, stem, chrome_trace, run_report);
    }
  }
  std::printf("weights bit-identical across host_threads: %s\n",
              all_identical ? "yes" : "NO — determinism violated");

  const std::string out_path = flags.GetString("out");
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"parallel_scaling\",\n");
  std::fprintf(out, "  \"dataset\": \"%s\",\n", dataset_name.c_str());
  std::fprintf(out, "  \"system\": \"mllib*\",\n");
  std::fprintf(out, "  \"comm_steps\": %lld,\n",
               static_cast<long long>(flags.GetInt64("steps")));
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"bit_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& run = runs[i];
    std::fprintf(out,
                 "    {\"workers\": %zu, \"host_threads\": %zu, "
                 "\"wall_seconds\": %.6f, \"speedup\": %.4f, "
                 "\"sim_seconds\": %.6f, \"weights_checksum\": \"%#llx\"}%s\n",
                 run.workers, run.host_threads, run.wall_seconds, run.speedup,
                 run.sim_seconds,
                 static_cast<unsigned long long>(run.checksum),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 2;
}
