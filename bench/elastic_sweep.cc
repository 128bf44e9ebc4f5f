// Elasticity sweep: training under worker churn — scripted
// leave/join/rejoin scripts plus Poisson arrival/departure rates —
// for MLlib, MLlib* and the Petuum-style PS. Churn costs virtual time
// (suspicion windows, lineage rebuilds on migrated partitions, joiner
// catch-up) but, for the Spark systems, never moves the numerics: the
// weights checksum must be identical across every churn level,
// including churn-free. The PS numerics legitimately shift with the
// contributing fleet, so its invariant is per-level reproducibility.
// Every run must still reach the churn-free target objective. Any
// violated gate exits 2.
//
// Emits a machine-readable JSON report (results/BENCH_elastic.json).
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

double TimeToTarget(const TrainResult& result, double target) {
  for (const auto& point : result.curve.points()) {
    if (point.objective <= target) return point.time_sec;
  }
  return -1.0;
}

/// One churn level of the sweep. "scripted" pins the acceptance
/// scenario (two leaves, two joins, one rejoin through the failure
/// detector); the Poisson levels stress steady background churn.
struct ChurnLevel {
  std::string name;
  ChurnPlan plan;
};

std::vector<ChurnLevel> SweepLevels() {
  std::vector<ChurnLevel> levels;
  levels.push_back({"none", ChurnPlan{}});

  // Two workers out, the two cold spares in, one of the departed
  // returns — all detected by a 0.25s-heartbeat / 0.5s-timeout
  // detector well inside even the fastest (PS) run.
  ChurnPlan scripted;
  scripted.heartbeat_interval_sec = 0.25;
  scripted.suspicion_timeout_sec = 0.5;
  scripted.initial_active = 6;  // workers 6 and 7 start as spares
  scripted.leaves = {{0, 1.0}, {1, 2.0}};
  scripted.joins = {{6, 3.0}, {7, 4.0}};
  scripted.rejoins = {{0, 5.0}};
  levels.push_back({"scripted", scripted});

  for (double rate : {0.05, 0.15}) {
    ChurnPlan plan;
    plan.heartbeat_interval_sec = 0.25;
    plan.suspicion_timeout_sec = 0.5;
    plan.initial_active = 6;
    plan.leave_rate_per_sec = rate;
    plan.join_rate_per_sec = rate;
    plan.min_active_workers = 4;
    char name[32];
    std::snprintf(name, sizeof(name), "poisson-%.2f", rate);
    levels.push_back({name, plan});
  }
  return levels;
}

struct SweepRow {
  std::string system;
  std::string churn;
  double sim_seconds = 0.0;
  double time_to_target = -1.0;
  double objective = 0.0;
  MembershipStats membership;
  uint64_t checksum = 0;
  bool checksum_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "Elasticity sweep: training time and numerics under scripted and "
      "Poisson worker churn for mllib, mllib* and petuum; writes "
      "results/BENCH_elastic.json.");
  flags.AddString("dataset", "url", "synthetic dataset spec name");
  flags.AddDouble("scale", 1e-3, "synthetic dataset scale factor");
  flags.AddInt64("steps", 10, "communication steps per run");
  flags.AddString("out", "BENCH_elastic.json",
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
  const int steps = static_cast<int>(flags.GetInt64("steps"));
  const std::vector<ChurnLevel> levels = SweepLevels();

  const SystemKind systems[] = {SystemKind::kMllib, SystemKind::kMllibStar,
                                SystemKind::kPetuum};

  std::printf("elastic_sweep: %s (%zu x %zu), %d steps\n",
              dataset_name.c_str(), data.size(), data.num_features(), steps);
  std::printf("%8s %14s %10s %14s %6s %6s %8s %10s %18s\n", "system", "churn",
              "sim_sec", "time_to_target", "leaves", "joins", "rejoins",
              "migrated", "weights_checksum");

  std::vector<SweepRow> rows;
  bool all_ok = true;
  bool target_reached = true;
  uint64_t total_joins = 0;
  uint64_t total_leaves = 0;
  for (SystemKind kind : systems) {
    const bool is_ps = kind == SystemKind::kPetuum;
    uint64_t reference_checksum = 0;
    double target = 0.0;
    for (size_t i = 0; i < levels.size(); ++i) {
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
      cluster.churn = levels[i].plan;

      // Per-run telemetry window so each exported report covers
      // exactly one (system, churn level) run.
      Telemetry::Get().Clear();
      const TrainResult result =
          MakeTrainer(kind, config)->Train(data, cluster);
      bench::ExportRunArtifacts(
          result,
          std::string("elastic_") + SystemName(kind) + "_" + levels[i].name,
          chrome_trace, run_report);

      SweepRow row;
      row.system = SystemName(kind);
      row.churn = levels[i].name;
      row.sim_seconds = result.sim_seconds;
      row.objective = result.curve.points().empty()
                          ? std::nan("")
                          : result.curve.points().back().objective;
      row.membership = result.membership;
      row.checksum = bench::WeightsChecksum(result.final_weights);
      if (i == 0) {
        reference_checksum = row.checksum;
        // The graceful-degradation gate: every churn level must still
        // reach the churn-free objective. Spark weights are
        // churn-independent, so 0.5% slack suffices; the PS numerics
        // legitimately move with the contributing fleet (rounds
        // completed by fewer pushers take smaller aggregate steps),
        // so its gate is "within 5% of churn-free".
        target = row.objective * (is_ps ? 1.05 : 1.005);
      }
      row.time_to_target = TimeToTarget(result, target);
      if (row.time_to_target < 0.0) target_reached = false;

      if (is_ps) {
        const TrainResult repeat =
            MakeTrainer(kind, config)->Train(data, cluster);
        row.checksum_ok =
            bench::WeightsChecksum(repeat.final_weights) == row.checksum;
      } else {
        // Spark trainers: churn costs time, never weights.
        row.checksum_ok = row.checksum == reference_checksum;
      }
      all_ok = all_ok && row.checksum_ok;
      total_joins += row.membership.joins + row.membership.rejoins;
      total_leaves += row.membership.leaves;

      std::printf(
          "%8s %14s %10.3f %14.3f %6llu %6llu %8llu %10llu %#18llx%s\n",
          row.system.c_str(), row.churn.c_str(), row.sim_seconds,
          row.time_to_target,
          static_cast<unsigned long long>(row.membership.leaves),
          static_cast<unsigned long long>(row.membership.joins),
          static_cast<unsigned long long>(row.membership.rejoins),
          static_cast<unsigned long long>(row.membership.partitions_migrated),
          static_cast<unsigned long long>(row.checksum),
          row.checksum_ok ? "" : "  MISMATCH");
      rows.push_back(row);
    }
  }

  // The scripted level really exercises the acceptance scenario.
  bool scripted_ok = true;
  for (const SweepRow& row : rows) {
    if (row.churn != "scripted") continue;
    scripted_ok = scripted_ok && row.membership.leaves >= 2 &&
                  row.membership.joins >= 2 && row.membership.rejoins >= 1;
  }
  std::printf("checksums consistent: %s\n",
              all_ok ? "yes" : "NO — determinism violated");
  std::printf("target reached everywhere: %s\n", target_reached ? "yes" : "NO");
  std::printf("scripted churn fired fully: %s\n", scripted_ok ? "yes" : "NO");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::Str("elastic_sweep"));
  doc.Set("dataset", JsonValue::Str(dataset_name));
  doc.Set("comm_steps", JsonValue::Number(static_cast<int64_t>(steps)));
  doc.Set("checksums_consistent", JsonValue::Bool(all_ok));
  doc.Set("target_reached", JsonValue::Bool(target_reached));
  doc.Set("scripted_churn_complete", JsonValue::Bool(scripted_ok));
  doc.Set("total_joins", JsonValue::Number(total_joins));
  doc.Set("total_leaves", JsonValue::Number(total_leaves));
  JsonValue runs = JsonValue::Array();
  for (const SweepRow& row : rows) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%#llx",
                  static_cast<unsigned long long>(row.checksum));
    JsonValue entry = JsonValue::Object();
    entry.Set("system", JsonValue::Str(row.system));
    entry.Set("churn", JsonValue::Str(row.churn));
    entry.Set("sim_seconds", JsonValue::Number(row.sim_seconds));
    entry.Set("time_to_target", JsonValue::Number(row.time_to_target));
    entry.Set("objective", JsonValue::Number(row.objective));
    entry.Set("joins", JsonValue::Number(row.membership.joins));
    entry.Set("leaves", JsonValue::Number(row.membership.leaves));
    entry.Set("rejoins", JsonValue::Number(row.membership.rejoins));
    entry.Set("suspicions", JsonValue::Number(row.membership.suspicions));
    entry.Set("partitions_migrated",
              JsonValue::Number(row.membership.partitions_migrated));
    entry.Set("degraded_rounds",
              JsonValue::Number(row.membership.degraded_rounds));
    entry.Set("min_active", JsonValue::Number(row.membership.min_active));
    entry.Set("max_active", JsonValue::Number(row.membership.max_active));
    entry.Set("weights_checksum", JsonValue::Str(checksum));
    entry.Set("checksum_ok", JsonValue::Bool(row.checksum_ok));
    runs.Append(std::move(entry));
  }
  doc.Set("runs", std::move(runs));
  const std::string written =
      bench::WriteBenchJson(flags.GetString("out"), doc);
  if (written.empty()) return 1;
  return all_ok && target_reached && scripted_ok ? 0 : 2;
}
