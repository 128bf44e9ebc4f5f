// mlstar_train: command-line training tool over the full public API.
// Example (one command line):
//
//   mlstar_train --dataset=kdd12 --system=mllib* --loss=hinge
//                --l2=0.1 --lr=0.1 --steps=30 --workers=8
//                --model-out=/tmp/model.txt
//
// Trains on a synthetic preset (or a LIBSVM file via --libsvm=path),
// splits off a test set, reports convergence and held-out metrics, and
// optionally saves the model.
#include <cstdio>

#include "common/flags.h"
#include "common/strings.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "data/libsvm.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

// Prints `status` and gives the exit code of a rejected run.
int Reject(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "mlstar_train — train a GLM with any of the reproduced systems "
      "on a simulated cluster");
  flags.AddString("dataset", "avazu",
                  "synthetic preset: avazu|url|kddb|kdd12|wx");
  flags.AddString("libsvm", "", "path to a LIBSVM file (overrides preset)");
  flags.AddDouble("scale", 1e-3, "synthetic preset scale factor");
  flags.AddString("system", "mllib*",
                  "mllib|mllib+ma|mllib*|petuum|petuum*|angel|mllib-lbfgs");
  flags.AddString("loss", "hinge", "hinge|logistic|squared");
  flags.AddDouble("l2", 0.0, "L2 regularization strength (0 = none)");
  flags.AddDouble("lr", 0.1, "base learning rate");
  flags.AddString("lr-schedule", "constant", "constant|inverse-sqrt");
  flags.AddDouble("batch-fraction", 0.01, "batch size / partition size");
  flags.AddInt64("steps", 20, "communication steps");
  flags.AddInt64("workers", 8, "simulated executors");
  flags.AddInt64("host_threads", 1,
                 "host threads for per-worker math (0 = all cores; "
                 "results are bit-identical for any value)");
  flags.AddInt64("ps-shards", 2, "parameter-server shards (PS systems)");
  flags.AddInt64("staleness", 0, "SSP staleness (PS systems; 0 = BSP)");
  flags.AddDouble("test-fraction", 0.2, "held-out fraction");
  flags.AddInt64("seed", 42, "random seed");
  flags.AddString("model-out", "", "save the trained model here");
  flags.AddBool("trace", false, "print the ASCII gantt chart");

  const Status parse_status = flags.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n%s", parse_status.ToString().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage().c_str());
    return 0;
  }
  // Counts are cast to unsigned sizes below; a negative one would wrap.
  for (const char* count :
       {"steps", "workers", "host_threads", "ps-shards", "staleness"}) {
    if (flags.GetInt64(count) < 0) {
      std::fprintf(stderr, "--%s must be >= 0, got %lld\n", count,
                   static_cast<long long>(flags.GetInt64(count)));
      return 1;
    }
  }
  // Names and fractions are checked before anything is built (the
  // dataset name where it is read), so a typo ends the run instead of
  // training something else.
  const Result<SystemKind> system = SystemFromName(flags.GetString("system"));
  if (!system.ok()) return Reject(system.status());
  const Result<LossKind> loss = LossKindFromName(flags.GetString("loss"));
  if (!loss.ok()) return Reject(loss.status());
  const std::string schedule = flags.GetString("lr-schedule");
  if (schedule != "constant" && schedule != "inverse-sqrt") {
    return Reject(Status::InvalidArgument(
        "unknown lr-schedule '" + schedule +
        "'; expected constant|inverse-sqrt"));
  }
  const double test_fraction = flags.GetDouble("test-fraction");
  if (!(test_fraction >= 0.0 && test_fraction < 1.0)) {
    return Reject(Status::InvalidArgument(
        "test-fraction must be in [0, 1), got " +
        FormatDouble(test_fraction)));
  }

  // --- data -------------------------------------------------------
  Dataset data;
  const std::string libsvm_path = flags.GetString("libsvm");
  if (!libsvm_path.empty()) {
    auto loaded = ReadLibSvm(libsvm_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", libsvm_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    data = std::move(loaded).value();
  } else {
    Result<SyntheticSpec> spec =
        SpecByName(flags.GetString("dataset"), flags.GetDouble("scale"));
    if (!spec.ok()) return Reject(spec.status());
    spec->seed = static_cast<uint64_t>(flags.GetInt64("seed"));
    data = GenerateSynthetic(*spec);
  }
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));
  const TrainTestSplit split = RandomSplit(data, 1.0 - test_fraction, &rng);
  std::printf("data: %zu train / %zu test, %zu features\n",
              split.train.size(), split.test.size(), data.num_features());

  // --- config -----------------------------------------------------
  TrainerConfig config;
  config.loss = *loss;
  // Any strength but 0 selects L2, so a negative or NaN one reaches
  // ValidateTrainerConfig instead of training unregularized.
  if (flags.GetDouble("l2") != 0) {
    config.regularizer = RegularizerKind::kL2;
    config.lambda = flags.GetDouble("l2");
  }
  config.base_lr = flags.GetDouble("lr");
  config.lr_schedule = schedule == "inverse-sqrt" ? LrScheduleKind::kInverseSqrt
                                                  : LrScheduleKind::kConstant;
  config.batch_fraction = flags.GetDouble("batch-fraction");
  config.max_comm_steps = static_cast<int>(flags.GetInt64("steps"));
  config.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  config.host_threads = static_cast<size_t>(flags.GetInt64("host_threads"));
  config.ps.num_shards = static_cast<size_t>(flags.GetInt64("ps-shards"));
  config.ps.staleness = static_cast<int>(flags.GetInt64("staleness"));

  const Status config_status = ValidateTrainerConfig(config);
  if (!config_status.ok()) return Reject(config_status);

  const ClusterConfig cluster =
      ClusterConfig::Cluster1(static_cast<size_t>(flags.GetInt64("workers")));
  const Status cluster_status = ValidateClusterConfig(cluster);
  if (!cluster_status.ok()) return Reject(cluster_status);

  // --- train ------------------------------------------------------
  const TrainResult result =
      MakeTrainer(*system, config)->Train(split.train, cluster);
  std::printf("\n%-6s %12s %12s\n", "step", "sim-time(s)", "objective");
  for (const ConvergencePoint& p : result.curve.points()) {
    std::printf("%-6d %12.3f %12.6f\n", p.comm_step, p.time_sec,
                p.objective);
  }
  if (result.diverged) {
    std::fprintf(stderr, "\ntraining DIVERGED — lower --lr\n");
    return 2;
  }

  // --- evaluate ---------------------------------------------------
  if (config.loss != LossKind::kSquared && !split.test.empty()) {
    const ClassificationMetrics metrics =
        EvaluateClassifier(split.test.rows(), result.final_weights);
    std::printf("\nheld-out: %s\n", MetricsToString(metrics).c_str());
  } else if (!split.test.empty()) {
    std::printf("\nheld-out MSE: %.6f\n",
                MeanSquaredError(split.test.rows(), result.final_weights));
  }
  std::printf("system=%s steps=%d sim-time=%.2fs updates=%llu moved=%.2fMB\n",
              result.system.c_str(), result.comm_steps, result.sim_seconds,
              static_cast<unsigned long long>(result.total_model_updates),
              static_cast<double>(result.total_bytes) / 1e6);

  if (flags.GetBool("trace")) {
    std::printf("\n%s", result.trace.RenderAscii(96).c_str());
  }

  const std::string model_out = flags.GetString("model-out");
  if (!model_out.empty()) {
    const Status st = SaveModel(GlmModel(result.final_weights), model_out);
    if (!st.ok()) {
      std::fprintf(stderr, "model save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("model saved to %s\n", model_out.c_str());
  }
  return 0;
}
