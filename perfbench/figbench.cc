// figbench: the measured program behind perfbench/run.py.
//
// Runs one figure-shaped workload (a slice of Fig. 4, 5 or 6) as a
// closed-loop batch job from this one process, through the library's
// public API only: GenerateSynthetic, PartitionCsr, GridSearch and
// MakeTrainer(...)->Train. It prints one JSON object with the raw
// measurements; run.py turns them into metrics and checks them.
//
//   figbench --workload=fig4-kdd12 --seed=1 --seconds=20 --trace=0
//
// A run is: set-up (repeated kSetupReps times: dataset generation,
// PartitionCsr warm-up, one 1-step Train per system so code, pages and
// the allocator are warm), then whole passes of the workload until
// --seconds have elapsed. With --trace=0 every pass runs untraced. With
// --trace=1 the first half of the time runs untraced passes and the
// second half traced ones, with Telemetry and its EngineProfiler on;
// before the passes, the grid is replayed once to count the trials that
// diverge. A host-speed probe runs around every set-up and pass (see
// HostProbe).
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "obs/engine_profiler.h"
#include "obs/telemetry.h"
#include "train/grid_search.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;  // setup_s is the median of these
constexpr int kMinPasses = 2;  // passes per phase, however long they take

/// One system of a workload: tuned by grid search when `grid` is set,
/// then trained once more as the final run.
struct Job {
  SystemKind kind;
  TrainerConfig base;
  std::optional<GridSearchSpec> grid;
};

struct Workload {
  std::string name;
  SyntheticSpec spec;
  ClusterConfig cluster;
  std::vector<Job> jobs;
};

TrainerConfig HingeBase(double lambda) {
  TrainerConfig base;
  base.loss = LossKind::kHinge;
  base.regularizer = lambda > 0 ? RegularizerKind::kL2 : RegularizerKind::kNone;
  base.lambda = lambda;
  base.lr_schedule = LrScheduleKind::kInverseSqrt;
  return base;
}

// The three workloads. Grids, hyperparameters and datasets are those of
// bench/fig4_mllib_vs_star, fig5_ps_comparison and fig6_scaling. The
// step budgets are cut in proportion so a whole pass takes about three
// seconds, and every final run trains to its full budget (fig4's and
// fig5's stop-at-target would make the pass length depend on how good
// the first system's short run happened to be).

Workload Fig4Kdd12() {
  // Fig. 4, kdd12 with L2 = 0.1: MLlib* vs MLlib, both grid-searched.
  Workload w{"fig4-kdd12", Kdd12Spec(), ClusterConfig::Cluster1(8), {}};
  const TrainerConfig base = HingeBase(0.1);

  Job star{SystemKind::kMllibStar, base, GridSearchSpec{}};
  star.grid->learning_rates = {0.1, 0.3, 1.0};
  star.grid->batch_fractions = {0.01};
  star.grid->trial_comm_steps = 3;
  star.base.max_comm_steps = 10;
  w.jobs.push_back(star);

  Job mllib{SystemKind::kMllib, base, GridSearchSpec{}};
  mllib.grid->learning_rates = {1.0, 4.0, 16.0};
  mllib.grid->batch_fractions = {0.01, 0.1};
  mllib.grid->trial_comm_steps = 30;
  mllib.base.eval_every = 10;
  mllib.base.max_comm_steps = 150;
  w.jobs.push_back(mllib);
  return w;
}

Workload Fig5Kddb() {
  // Fig. 5, kddb with L2 = 0.1: the parameter-server systems, each
  // grid-searched (Petuum* over SSP staleness too), 8 workers + 2 shards.
  Workload w{"fig5-kddb", KddbSpec(), ClusterConfig::Cluster1(8), {}};
  TrainerConfig base = HingeBase(0.1);
  base.ps.num_shards = 2;

  Job petuum{SystemKind::kPetuumStar, base, GridSearchSpec{}};
  petuum.grid->learning_rates = {0.1, 0.3, 1.0};
  petuum.grid->batch_fractions = {0.05, 0.2};
  petuum.grid->stalenesses = {0, 2};
  petuum.grid->trial_comm_steps = 20;
  petuum.base.eval_every = 10;
  petuum.base.max_comm_steps = 200;
  w.jobs.push_back(petuum);

  Job angel{SystemKind::kAngel, base, GridSearchSpec{}};
  angel.grid->learning_rates = {0.1, 0.3, 1.0};
  angel.grid->batch_fractions = {0.01, 0.05};
  angel.grid->trial_comm_steps = 2;
  angel.base.max_comm_steps = 14;
  w.jobs.push_back(angel);
  return w;
}

Workload Fig6Wx128() {
  // Fig. 6 at 128 machines: fixed hyperparameters, no search, two host
  // threads so the ThreadPool runs the per-worker work.
  Workload w{"fig6-wx128", WxSpec(), ClusterConfig::Cluster2(128), {}};
  const double batch_scale = 128.0 / 32.0;
  TrainerConfig base;
  base.loss = LossKind::kHinge;
  base.lr_schedule = LrScheduleKind::kConstant;
  base.ps.num_shards = 4;
  base.host_threads = 2;

  Job star{SystemKind::kMllibStar, base, std::nullopt};
  star.base.base_lr = 0.3;
  star.base.max_comm_steps = 4;
  w.jobs.push_back(star);

  Job angel{SystemKind::kAngel, base, std::nullopt};
  angel.base.base_lr = 0.3;
  angel.base.batch_fraction = 0.01 * batch_scale;
  angel.base.max_comm_steps = 4;
  w.jobs.push_back(angel);

  Job mllib{SystemKind::kMllib, base, std::nullopt};
  mllib.base.base_lr = 1.0;
  mllib.base.lr_schedule = LrScheduleKind::kInverseSqrt;
  mllib.base.batch_fraction = 0.01 * batch_scale;
  mllib.base.max_comm_steps = 80;
  mllib.base.eval_every = 10;
  w.jobs.push_back(mllib);
  return w;
}

std::optional<Workload> WorkloadByName(const std::string& name) {
  for (Workload w : {Fig4Kdd12(), Fig5Kddb(), Fig6Wx128()}) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

/// The workload seed feeds both the dataset and every trainer.
void ApplySeed(uint64_t seed, Workload* w) {
  w->spec.seed += seed;
  for (Job& job : w->jobs) job.base.seed += seed;
}

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Usage {
  double cpu_s = 0.0;
  int64_t minflt = 0;
  int64_t maxrss_kb = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.minflt = ru.ru_minflt;
  u.maxrss_kb = ru.ru_maxrss;
  return u;
}

/// Host-speed probe: a fixed unit of the benchmark's own work, which no
/// change to the library can speed up or slow down: 2^21 independent
/// random reads from a 64 MB table, on one thread. The host shares its
/// machine, last-level cache included, with other tenants, and its speed
/// drifts by up to 1.6x over minutes. The workloads slow most when
/// neighbours take the shared cache, and so do random reads from a table
/// about the size of their working sets. (Of the probes tried, this one
/// tracked the workloads' drift best; a sparse-gather-plus-stream probe
/// and a sweep over a copy of the dataset tracked less of it.) Each timed
/// section records the mean probe time around it, and run.py scales the
/// section's times by reference/probe, so the drift largely cancels while
/// a library change moves the scaled time as much as the raw one.
class HostProbe {
 public:
  HostProbe() : table_(kTable, 1.0) {}

  /// Seconds the fixed work took.
  double Run() {
    const Clock::time_point t0 = Clock::now();
    uint64_t x = 88172645463325252ull;
    double sum = 0.0;
    for (size_t i = 0; i < kReads; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += table_[x & (kTable - 1)];
    }
    sink_ = sum;
    return Seconds(t0, Clock::now());
  }

  /// Resident size of the table, left out of peak_rss_mb.
  double footprint_mb() const {
    return static_cast<double>(kTable * sizeof(double)) / (1024.0 * 1024.0);
  }

 private:
  static constexpr size_t kTable = size_t{8} << 20;  // 64 MB of doubles
  static constexpr size_t kReads = size_t{1} << 21;

  std::vector<double> table_;
  volatile double sink_ = 0.0;
};

void Fnv1a(uint64_t word, uint64_t* h) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (word >> (8 * b)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// FNV-1a over the exact bits of the final weights and the whole
/// convergence curve: any single-ulp change to either moves the digest.
std::string ResultDigest(const TrainResult& r) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < r.final_weights.dim(); ++i) {
    Fnv1a(Bits(r.final_weights[i]), &h);
  }
  for (const ConvergencePoint& p : r.curve.points()) {
    Fnv1a(static_cast<uint64_t>(p.comm_step), &h);
    Fnv1a(Bits(p.time_sec), &h);
    Fnv1a(Bits(p.objective), &h);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

JsonValue Num(double v) { return JsonValue::Number(v); }
JsonValue Int(uint64_t v) { return JsonValue::Number(v); }

/// Set-up: everything before the timed section.
JsonValue RunSetup(const Workload& w, HostProbe* probe, Dataset* data) {
  JsonValue setup_s = JsonValue::Array();
  JsonValue probe_s = JsonValue::Array();
  JsonValue generate_s = JsonValue::Array();
  JsonValue partition_s = JsonValue::Array();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double probe_before = probe->Run();
    const Clock::time_point t0 = Clock::now();
    *data = GenerateSynthetic(w.spec);
    const Clock::time_point t1 = Clock::now();
    generate_s.Append(Num(Seconds(t0, t1)));
    for (int i = 0; i < 2; ++i) {
      const Clock::time_point p0 = Clock::now();
      const std::vector<CsrBlock> parts =
          PartitionCsr(*data, w.cluster.num_workers);
      partition_s.Append(Num(Seconds(p0, Clock::now())));
    }
    for (const Job& job : w.jobs) {
      TrainerConfig warm = job.base;
      warm.max_comm_steps = 1;
      MakeTrainer(job.kind, warm)->Train(*data, w.cluster);
    }
    setup_s.Append(Num(Seconds(t0, Clock::now())));
    probe_s.Append(Num((probe_before + probe->Run()) / 2));
  }
  JsonValue out = JsonValue::Object();
  out.Set("setup_s", std::move(setup_s));
  out.Set("probe_s", std::move(probe_s));
  out.Set("generate_s", std::move(generate_s));
  out.Set("partition_s", std::move(partition_s));
  return out;
}

/// Grid trials that diverged, per job, in GridSearch's candidate order.
/// Each candidate is replayed as a one-point GridSearch, which keeps no
/// candidate (best objective stays +inf) exactly when the trial diverged.
/// The count is deterministic, so it is taken once, outside the passes.
JsonValue CountDivergedTrials(const Workload& w, const Dataset& data) {
  uint64_t trials = 0;
  uint64_t diverged = 0;
  for (const Job& job : w.jobs) {
    if (!job.grid) continue;
    for (double lr : job.grid->learning_rates) {
      for (double fraction : job.grid->batch_fractions) {
        for (int staleness : job.grid->stalenesses) {
          GridSearchSpec point = *job.grid;
          point.learning_rates = {lr};
          point.batch_fractions = {fraction};
          point.stalenesses = {staleness};
          const GridSearchOutcome outcome =
              GridSearch(job.kind, job.base, point, data, w.cluster);
          trials += outcome.candidates_evaluated;
          if (std::isinf(outcome.best_objective)) ++diverged;
        }
      }
    }
  }
  JsonValue out = JsonValue::Object();
  out.Set("trials", Int(trials));
  out.Set("diverged", Int(diverged));
  return out;
}

/// One whole pass of the workload: every job's search and final run.
JsonValue RunPass(const Workload& w, const Dataset& data, bool traced,
                  HostProbe* probe) {
  // Tracing arms the whole Telemetry sink, not only the EngineProfiler:
  // the engine counts its events only while telemetry is recording.
  Telemetry& obs = Telemetry::Get();
  if (traced) {
    obs.Clear();  // also zeroes the EngineProfiler
    obs.set_enabled(true);
  }

  double search_s = 0.0;
  double final_s = 0.0;
  uint64_t trials = 0;
  JsonValue finals = JsonValue::Array();

  const double probe_before = probe->Run();
  const Usage u0 = ReadUsage();
  const Clock::time_point t0 = Clock::now();
  for (const Job& job : w.jobs) {
    TrainerConfig config = job.base;
    if (job.grid) {
      const Clock::time_point s0 = Clock::now();
      const GridSearchOutcome outcome =
          GridSearch(job.kind, job.base, *job.grid, data, w.cluster);
      search_s += Seconds(s0, Clock::now());
      trials += outcome.candidates_evaluated;
      config = outcome.best_config;
    }
    const Clock::time_point f0 = Clock::now();
    const TrainResult r = MakeTrainer(job.kind, config)->Train(data, w.cluster);
    const double wall = Seconds(f0, Clock::now());
    final_s += wall;

    JsonValue f = JsonValue::Object();
    f.Set("system", JsonValue::Str(r.system));
    f.Set("digest", JsonValue::Str(ResultDigest(r)));
    f.Set("diverged", JsonValue::Bool(r.diverged));
    f.Set("comm_steps", Int(static_cast<uint64_t>(r.comm_steps)));
    f.Set("model_updates", Int(r.total_model_updates));
    f.Set("sim_seconds", Num(r.sim_seconds));
    f.Set("bytes", Int(r.total_bytes));
    f.Set("wall_s", Num(wall));
    finals.Append(std::move(f));
  }
  const Clock::time_point t1 = Clock::now();
  const Usage u1 = ReadUsage();
  obs.set_enabled(false);
  const double probe_after = probe->Run();

  JsonValue pass = JsonValue::Object();
  pass.Set("traced", JsonValue::Bool(traced));
  pass.Set("wall_s", Num(Seconds(t0, t1)));
  pass.Set("cpu_s", Num(u1.cpu_s - u0.cpu_s));
  pass.Set("probe_s", Num((probe_before + probe_after) / 2));
  pass.Set("minflt", JsonValue::Number(u1.minflt - u0.minflt));
  pass.Set("search_s", Num(search_s));
  pass.Set("final_s", Num(final_s));
  pass.Set("search_trials", Int(trials));
  pass.Set("train_calls", Int(trials + w.jobs.size()));
  if (traced) {
    JsonValue layers = JsonValue::Object();
    for (const SubsystemStats& s : EngineProfiler::Get().Snapshot()) {
      JsonValue layer = JsonValue::Object();
      layer.Set("host_us", Int(s.host_us));
      layer.Set("events", Int(s.events));
      layers.Set(s.name, std::move(layer));
    }
    pass.Set("profiler", std::move(layers));
  }
  pass.Set("finals", std::move(finals));
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "Figure-suite benchmark program: runs one workload for a fixed time "
      "and prints its raw measurements as one JSON object.");
  flags.AddString("workload", "", "fig4-kdd12 | fig5-kddb | fig6-wx128");
  flags.AddInt64("seed", 0, "workload seed (dataset and trainers)");
  flags.AddDouble("seconds", 10.0, "length of the timed section");
  flags.AddInt64("trace", 0, "1 = also run traced passes (profiler on)");
  flags.AddInt64("host-threads", 0,
                 "override every job's host_threads (0 = the workload's own)");
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
  std::optional<Workload> workload =
      WorkloadByName(flags.GetString("workload"));
  const int64_t seed = flags.GetInt64("seed");
  const double seconds = flags.GetDouble("seconds");
  if (!workload || seed < 0 || !(seconds > 0)) {
    std::fprintf(stderr, "figbench: bad arguments\n%s", flags.Usage().c_str());
    return 1;
  }
  Workload& w = *workload;
  ApplySeed(static_cast<uint64_t>(seed), &w);
  if (const int64_t threads = flags.GetInt64("host-threads"); threads > 0) {
    for (Job& job : w.jobs) job.base.host_threads = threads;
  }
  const bool trace = flags.GetInt64("trace") != 0;

  JsonValue doc = JsonValue::Object();
  doc.Set("workload", JsonValue::Str(w.name));
  doc.Set("seed", JsonValue::Number(seed));
  doc.Set("host_threads", Int(w.jobs.front().base.host_threads));
  HostProbe probe;
  Dataset data;
  doc.Set("setup", RunSetup(w, &probe, &data));
  if (trace) doc.Set("grid", CountDivergedTrials(w, data));

  JsonValue passes = JsonValue::Array();
  for (const bool traced : trace ? std::vector<bool>{false, true}
                                 : std::vector<bool>{false}) {
    const double budget = trace ? seconds / 2 : seconds;
    const Clock::time_point start = Clock::now();
    for (int64_t n = 0;
         n < kMinPasses || Seconds(start, Clock::now()) < budget; ++n) {
      passes.Append(RunPass(w, data, traced, &probe));
    }
  }

  doc.Set("passes", std::move(passes));
  doc.Set("peak_rss_mb",
          Num(static_cast<double>(ReadUsage().maxrss_kb) / 1024.0 -
              probe.footprint_mb()));
  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}
