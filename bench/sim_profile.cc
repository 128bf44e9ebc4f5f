// Simulator self-profiling harness: how fast does the discrete-event
// engine itself run, and what does recording cost? Sweeps
// representative configs (mllib, mllib*, petuum) x host_threads {1, 8}
// and, for each combo, trains once with telemetry off (the checksum
// baseline) and once with full recording on (windowed series, round
// profiles, EngineProfiler).
//
// Gates (any violation exits 2):
//  - recording invisibility: the weights checksum with telemetry on
//    must equal the telemetry-off baseline, per combo;
//  - host-thread determinism: the checksum must match across
//    host_threads values for the same system;
//  - throughput: simulator events per wall second >= --min-events-per-sec;
//  - overhead: host microseconds per simulated second <=
//    --max-host-us-per-sim-sec.
//
// Writes results/BENCH_sim_profile.json with the per-combo trajectory
// (events/sec, host-us-per-sim-second, subsystem attribution) so the
// numbers are tracked across commits.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "data/synthetic.h"
#include "obs/engine_profiler.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

struct ProfileRow {
  std::string system;
  size_t host_threads = 0;
  double sim_seconds = 0.0;
  double wall_off_sec = 0.0;  ///< telemetry disabled
  double wall_on_sec = 0.0;   ///< full recording
  uint64_t events = 0;        ///< EngineProfiler event count (recording run)
  double events_per_sec = 0.0;
  double host_us_per_sim_sec = 0.0;
  uint64_t checksum = 0;      ///< telemetry-off baseline
  bool checksum_ok = true;    ///< recording on == recording off
  std::vector<SubsystemStats> subsystems;
};

double WallSeconds(std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "Simulator self-profile: events/sec and host-us-per-sim-second for "
      "mllib, mllib* and petuum across host_threads, with recording "
      "on/off bit-identity gates; writes results/BENCH_sim_profile.json.");
  flags.AddString("dataset", "url", "synthetic dataset spec name");
  flags.AddDouble("scale", 1e-3, "synthetic dataset scale factor");
  flags.AddInt64("steps", 8, "communication steps per run");
  flags.AddDouble("min-events-per-sec", 1000.0,
                  "throughput gate: simulator events per wall second");
  flags.AddDouble("max-host-us-per-sim-sec", 1e8,
                  "overhead gate: host microseconds per simulated second");
  flags.AddString("out", "BENCH_sim_profile.json",
                  "JSON report filename (written under results/)");
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

  const std::string dataset_name = flags.GetString("dataset");
  const Dataset data =
      GenerateSynthetic(SpecByName(dataset_name, flags.GetDouble("scale")));
  const int steps = static_cast<int>(flags.GetInt64("steps"));
  const double min_events_per_sec = flags.GetDouble("min-events-per-sec");
  const double max_host_us = flags.GetDouble("max-host-us-per-sim-sec");

  const SystemKind systems[] = {SystemKind::kMllib, SystemKind::kMllibStar,
                                SystemKind::kPetuum};
  const size_t thread_levels[] = {1, 8};

  std::printf("sim_profile: %s (%zu x %zu), %d steps\n", dataset_name.c_str(),
              data.size(), data.num_features(), steps);
  std::printf("%8s %8s %10s %10s %10s %12s %14s %6s\n", "system", "threads",
              "sim_sec", "wall_off", "wall_on", "events/sec", "host_us/sim_s",
              "ident");

  std::vector<ProfileRow> rows;
  bool identity_ok = true;
  bool thread_ok = true;
  bool throughput_ok = true;
  bool overhead_ok = true;
  for (SystemKind kind : systems) {
    uint64_t thread_reference = 0;
    bool have_reference = false;
    for (size_t threads : thread_levels) {
      TrainerConfig config;
      config.loss = LossKind::kLogistic;
      config.lr_schedule = LrScheduleKind::kInverseSqrt;
      config.base_lr = kind == SystemKind::kPetuum ? 0.04 : 0.3;
      config.max_comm_steps = steps;
      config.seed = 17;
      config.host_threads = threads;
      ClusterConfig cluster = ClusterConfig::Cluster1(8);
      cluster.straggler_sigma = 0.08;

      ProfileRow row;
      row.system = SystemName(kind);
      row.host_threads = threads;

      // Baseline: recording fully off.
      Telemetry::Get().Clear();
      Telemetry::Get().set_enabled(false);
      const auto off0 = std::chrono::steady_clock::now();
      const TrainResult off = MakeTrainer(kind, config)->Train(data, cluster);
      row.wall_off_sec = WallSeconds(off0, std::chrono::steady_clock::now());
      row.checksum = bench::WeightsChecksum(off.final_weights);

      // Recording run: series, round profiles, profiler all live.
      Telemetry::Get().Clear();
      Telemetry::Get().set_enabled(true);
      const auto on0 = std::chrono::steady_clock::now();
      const TrainResult on = MakeTrainer(kind, config)->Train(data, cluster);
      row.wall_on_sec = WallSeconds(on0, std::chrono::steady_clock::now());
      row.sim_seconds = on.sim_seconds;
      row.events = EngineProfiler::Get().TotalEvents();
      row.subsystems = EngineProfiler::Get().Snapshot();
      Telemetry::Get().set_enabled(false);

      row.checksum_ok =
          bench::WeightsChecksum(on.final_weights) == row.checksum;
      identity_ok = identity_ok && row.checksum_ok;
      if (!have_reference) {
        thread_reference = row.checksum;
        have_reference = true;
      } else {
        thread_ok = thread_ok && row.checksum == thread_reference;
      }

      row.events_per_sec =
          row.wall_on_sec > 0.0
              ? static_cast<double>(row.events) / row.wall_on_sec
              : 0.0;
      row.host_us_per_sim_sec =
          row.sim_seconds > 0.0 ? row.wall_on_sec * 1e6 / row.sim_seconds
                                : 0.0;
      throughput_ok = throughput_ok && row.events_per_sec >= min_events_per_sec;
      overhead_ok = overhead_ok && row.host_us_per_sim_sec <= max_host_us;

      std::printf("%8s %8zu %10.3f %10.3f %10.3f %12.0f %14.0f %6s\n",
                  row.system.c_str(), row.host_threads, row.sim_seconds,
                  row.wall_off_sec, row.wall_on_sec, row.events_per_sec,
                  row.host_us_per_sim_sec,
                  row.checksum_ok ? "yes" : "NO");
      rows.push_back(std::move(row));
    }
  }

  std::printf("recording invisible (on == off): %s\n",
              identity_ok ? "yes" : "NO — recording perturbed the numerics");
  std::printf("host-thread determinism: %s\n",
              thread_ok ? "yes" : "NO — checksum moved with host_threads");
  std::printf("throughput gate (>= %.0f events/sec): %s\n", min_events_per_sec,
              throughput_ok ? "pass" : "FAIL");
  std::printf("overhead gate (<= %.0f host_us/sim_sec): %s\n", max_host_us,
              overhead_ok ? "pass" : "FAIL");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::Str("sim_profile"));
  doc.Set("dataset", JsonValue::Str(dataset_name));
  doc.Set("comm_steps", JsonValue::Number(static_cast<int64_t>(steps)));
  doc.Set("min_events_per_sec", JsonValue::Number(min_events_per_sec));
  doc.Set("max_host_us_per_sim_sec", JsonValue::Number(max_host_us));
  doc.Set("recording_invisible", JsonValue::Bool(identity_ok));
  doc.Set("host_thread_deterministic", JsonValue::Bool(thread_ok));
  doc.Set("throughput_ok", JsonValue::Bool(throughput_ok));
  doc.Set("overhead_ok", JsonValue::Bool(overhead_ok));
  JsonValue runs = JsonValue::Array();
  for (const ProfileRow& row : rows) {
    char checksum[32];
    std::snprintf(checksum, sizeof(checksum), "%#llx",
                  static_cast<unsigned long long>(row.checksum));
    JsonValue entry = JsonValue::Object();
    entry.Set("system", JsonValue::Str(row.system));
    entry.Set("host_threads",
              JsonValue::Number(static_cast<uint64_t>(row.host_threads)));
    entry.Set("sim_seconds", JsonValue::Number(row.sim_seconds));
    entry.Set("wall_off_sec", JsonValue::Number(row.wall_off_sec));
    entry.Set("wall_on_sec", JsonValue::Number(row.wall_on_sec));
    entry.Set("events", JsonValue::Number(row.events));
    entry.Set("events_per_sec", JsonValue::Number(row.events_per_sec));
    entry.Set("host_us_per_sim_sec",
              JsonValue::Number(row.host_us_per_sim_sec));
    entry.Set("weights_checksum", JsonValue::Str(checksum));
    entry.Set("checksum_ok", JsonValue::Bool(row.checksum_ok));
    JsonValue subsystems = JsonValue::Object();
    for (const SubsystemStats& s : row.subsystems) {
      JsonValue sub = JsonValue::Object();
      sub.Set("host_us", JsonValue::Number(s.host_us));
      sub.Set("events", JsonValue::Number(s.events));
      subsystems.Set(s.name, std::move(sub));
    }
    entry.Set("subsystems", std::move(subsystems));
    runs.Append(std::move(entry));
  }
  doc.Set("runs", std::move(runs));
  const std::string written =
      bench::WriteBenchJson(flags.GetString("out"), doc);
  if (written.empty()) return 1;
  return identity_ok && thread_ok && throughput_ok && overhead_ok ? 0 : 2;
}
