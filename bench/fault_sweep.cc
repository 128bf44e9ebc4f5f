// Robustness sweep: time-to-target-objective as a function of the
// executor crash rate, for MLlib, MLlib* and the Petuum-style PS.
// Crashes cost recovery time (restart + lineage recompute) but never
// perturb the Spark trainers' numerics, so the sweep doubles as a
// determinism check: for the Spark systems the weights checksum must
// be identical across every crash rate, and for the PS the same rate
// run twice must reproduce the same checksum. Any mismatch exits
// non-zero.
//
// Emits a machine-readable JSON report (default BENCH_faults.json).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "data/synthetic.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

std::vector<double> ParseRates(const std::string& text) {
  std::vector<double> values;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comma = text.find(',', pos);
    const std::string item =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) values.push_back(std::stod(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

/// First virtual time at which the run's evaluated objective reached
/// `target`; negative when it never did.
double TimeToTarget(const TrainResult& result, double target) {
  for (const auto& point : result.curve.points()) {
    if (point.objective <= target) return point.time_sec;
  }
  return -1.0;
}

struct SweepRow {
  std::string system;
  double crash_rate = 0.0;
  double sim_seconds = 0.0;
  double time_to_target = -1.0;
  double objective = 0.0;
  uint64_t checksum = 0;
  uint64_t worker_crashes = 0;
  uint64_t lineage_recomputes = 0;
  bool checksum_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "Fault sweep: time-to-target objective vs executor crash rate for "
      "mllib, mllib* and petuum; writes BENCH_faults.json.");
  flags.AddString("dataset", "url", "synthetic dataset spec name");
  flags.AddDouble("scale", 1e-3, "synthetic dataset scale factor");
  flags.AddInt64("steps", 10, "communication steps per run");
  flags.AddString("rates", "0,0.02,0.05,0.1",
                  "worker crash probabilities to sweep");
  flags.AddString("out", "BENCH_faults.json",
                  "JSON report filename (written under results/)");
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
  const std::vector<double> rates = ParseRates(flags.GetString("rates"));
  const int steps = static_cast<int>(flags.GetInt64("steps"));

  const SystemKind systems[] = {SystemKind::kMllib, SystemKind::kMllibStar,
                                SystemKind::kPetuum};

  std::printf("fault_sweep: %s (%zu x %zu), %d steps\n", dataset_name.c_str(),
              data.size(), data.num_features(), steps);
  std::printf("%8s %12s %10s %14s %10s %8s %18s\n", "system", "crash_rate",
              "sim_sec", "time_to_target", "crashes", "rebuilds",
              "weights_checksum");

  std::vector<SweepRow> rows;
  bool all_ok = true;
  for (SystemKind kind : systems) {
    const bool is_ps = kind == SystemKind::kPetuum;
    uint64_t reference_checksum = 0;
    double target = 0.0;
    for (size_t i = 0; i < rates.size(); ++i) {
      TrainerConfig config;
      config.loss = LossKind::kLogistic;
      config.lr_schedule = LrScheduleKind::kInverseSqrt;
      // Petuum applies the raw sum of k deltas per round, so it needs
      // a ~k-times smaller step than the averaging systems.
      config.base_lr = is_ps ? 0.04 : 0.3;
      config.max_comm_steps = steps;
      config.seed = 17;
      ClusterConfig cluster = ClusterConfig::Cluster1(8);
      cluster.straggler_sigma = 0.08;
      cluster.faults.worker_crash_prob = rates[i];
      cluster.faults.executor_restart_seconds = 2.0;

      Telemetry::Get().Clear();
      const TrainResult result =
          MakeTrainer(kind, config)->Train(data, cluster);
      {
        char stem[64];
        std::snprintf(stem, sizeof(stem), "faults_%s_rate%.3f",
                      SystemName(kind).c_str(), rates[i]);
        bench::ExportRunArtifacts(result, stem, chrome_trace, run_report);
      }

      SweepRow row;
      row.system = SystemName(kind);
      row.crash_rate = rates[i];
      row.sim_seconds = result.sim_seconds;
      row.objective = result.curve.points().empty()
                          ? std::nan("")
                          : result.curve.points().back().objective;
      row.checksum = bench::WeightsChecksum(result.final_weights);
      row.worker_crashes = result.faults.worker_crashes;
      row.lineage_recomputes = result.faults.lineage_recomputes;
      if (i == 0) {
        reference_checksum = row.checksum;
        // Crash-free final objective, with a little slack so the PS
        // runs (whose numerics legitimately move under faults) still
        // register a crossing time.
        target = row.objective * 1.005;
      }
      row.time_to_target = TimeToTarget(result, target);

      if (is_ps) {
        // PS numerics may change with the crash rate (event order
        // shifts); the invariant is per-rate reproducibility.
        const TrainResult repeat =
            MakeTrainer(kind, config)->Train(data, cluster);
        row.checksum_ok =
            bench::WeightsChecksum(repeat.final_weights) == row.checksum;
      } else {
        // Spark trainers: crashes cost time, never weights.
        row.checksum_ok = row.checksum == reference_checksum;
      }
      all_ok = all_ok && row.checksum_ok;

      std::printf("%8s %12.3f %10.3f %14.3f %10llu %8llu %#18llx%s\n",
                  row.system.c_str(), row.crash_rate, row.sim_seconds,
                  row.time_to_target,
                  static_cast<unsigned long long>(row.worker_crashes),
                  static_cast<unsigned long long>(row.lineage_recomputes),
                  static_cast<unsigned long long>(row.checksum),
                  row.checksum_ok ? "" : "  MISMATCH");
      rows.push_back(row);
    }
  }
  std::printf("checksums consistent: %s\n",
              all_ok ? "yes" : "NO — determinism violated");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::Str("fault_sweep"));
  doc.Set("dataset", JsonValue::Str(dataset_name));
  doc.Set("comm_steps", JsonValue::Number(static_cast<int64_t>(steps)));
  doc.Set("checksums_consistent", JsonValue::Bool(all_ok));
  JsonValue runs = JsonValue::Array();
  for (const SweepRow& row : rows) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%#llx",
                  static_cast<unsigned long long>(row.checksum));
    JsonValue entry = JsonValue::Object();
    entry.Set("system", JsonValue::Str(row.system));
    entry.Set("crash_rate", JsonValue::Number(row.crash_rate));
    entry.Set("sim_seconds", JsonValue::Number(row.sim_seconds));
    entry.Set("time_to_target", JsonValue::Number(row.time_to_target));
    entry.Set("objective", JsonValue::Number(row.objective));
    entry.Set("worker_crashes", JsonValue::Number(row.worker_crashes));
    entry.Set("lineage_recomputes", JsonValue::Number(row.lineage_recomputes));
    entry.Set("weights_checksum", JsonValue::Str(checksum));
    entry.Set("checksum_ok", JsonValue::Bool(row.checksum_ok));
    runs.Append(std::move(entry));
  }
  doc.Set("runs", std::move(runs));
  const std::string written =
      bench::WriteBenchJson(flags.GetString("out"), doc);
  if (written.empty()) return 1;
  return all_ok ? 0 : 2;
}
