#ifndef MLLIBSTAR_TRAIN_TRAINER_H_
#define MLLIBSTAR_TRAIN_TRAINER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/convergence.h"
#include "core/loss.h"
#include "core/lr_schedule.h"
#include "core/model.h"
#include "core/regularizer.h"
#include "data/dataset.h"
#include "engine/spark_cluster.h"
#include "obs/round_profile.h"
#include "ps/parameter_server.h"
#include "sim/cluster_config.h"
#include "sim/fault_plan.h"
#include "sim/trace.h"
#include "train/checkpoint.h"
#include "workloads/objective.h"

namespace mllibstar {

/// The distributed training systems this library reproduces.
enum class SystemKind {
  kMllib,       ///< SendGradient + treeAggregate + driver update (§III-A)
  kMllibMa,     ///< MLlib + model averaging, still driver-centric (§IV-B1)
  kMllibStar,   ///< model averaging + Reduce-Scatter/AllGather (§IV-B2)
  kPetuum,      ///< PS, per-batch communication, model summation (§III-B1)
  kPetuumStar,  ///< Petuum with model averaging (paper's Petuum*)
  kAngel,       ///< PS, per-epoch communication, batch GD locally (§III-B2)
  kMllibLbfgs,  ///< spark.ml-style distributed L-BFGS (§VII next step)
};

/// Short identifier ("mllib", "mllib*", ...) used in bench output.
std::string SystemName(SystemKind kind);

/// Parses a SystemName back to its kind. An unknown name is an
/// InvalidArgument that names it and the accepted ones.
Result<SystemKind> SystemFromName(const std::string& name);

/// Hyperparameters and run limits shared by every trainer. Fields that
/// a given system does not use are ignored by it (e.g. `ps` for the
/// Spark-based trainers). The SendModel Spark trainers run one local
/// pass over the partition per communication step; the driver ships
/// the model with its link serializing the k copies, and
/// treeAggregate uses MLlib's about sqrt(k) intermediate aggregators.
struct TrainerConfig {
  // Objective.
  LossKind loss = LossKind::kHinge;
  RegularizerKind regularizer = RegularizerKind::kNone;
  double lambda = 0.0;

  // Optimization.
  double base_lr = 0.1;
  LrScheduleKind lr_schedule = LrScheduleKind::kInverseSqrt;
  /// Mini-batch size as a fraction of each worker's partition
  /// (MLlib's sampling fraction; Petuum/Angel's batch size).
  double batch_fraction = 0.01;
  /// Use the Bottou lazy/sparse trick for L2 in local SGD.
  bool lazy_regularization = true;

  // Run limits.
  /// Communication steps before the run stops. For L-BFGS it caps
  /// accepted iterations instead: the run makes one initial pass plus
  /// one per line-search evaluation, so a run that spends the whole
  /// budget reports more passes than this (one even at 0).
  int max_comm_steps = 100;
  /// Stop once the evaluated objective reaches this value.
  std::optional<double> target_objective;
  int eval_every = 1;
  uint64_t seed = 123;

  // Host execution. Number of *host* threads used to run the
  // embarrassingly parallel per-worker computations (1 = sequential,
  // 0 = all hardware threads). Pure wall-clock knob: every simulated
  // result is bit-identical for any value — see "Host parallelism vs.
  // virtual time" in docs/ARCHITECTURE.md.
  size_t host_threads = 1;

  // Crash recovery: periodic trainer-state snapshots (model,
  // iteration, RNG cursors) and resume. Resumed runs finish with
  // weights bit-identical to uninterrupted ones.
  CheckpointConfig checkpoint;

  // Parameter-server knobs (Petuum/Petuum*/Angel).
  PsConfig ps;
};

/// Rejects a config no trainer can run: a `base_lr` that is not finite
/// and positive (a step of it must go downhill), a `lambda` that is not
/// finite and non-negative (L2 shrinks by 1 - lr · lambda), a negative
/// `max_comm_steps`, a NaN `target_objective` (no objective ever
/// reaches it), an `eval_every` below 1 (the trainers evaluate after
/// every eval_every-th step), a `batch_fraction` that is not finite and
/// positive (a mini-batch holds fraction × rows rows), no PS shard
/// (`ps.num_shards` below 1) or a negative `ps.staleness` (round t
/// waits on round t - 1 - staleness). Every Trainer CHECKs it on
/// construction.
Status ValidateTrainerConfig(const TrainerConfig& config);

/// Outcome of one training run.
struct TrainResult {
  std::string system;
  ConvergenceCurve curve;
  DenseVector final_weights;
  int comm_steps = 0;
  double sim_seconds = 0.0;
  uint64_t total_bytes = 0;
  uint64_t total_model_updates = 0;
  bool diverged = false;
  /// What the fault injector (and the recovery machinery) did.
  FaultStats faults;
  /// What the failure detector and the elastic machinery did (all
  /// zeros when the churn plan is empty).
  MembershipStats membership;
  TraceLog trace;
  /// One profile per completed round, in completion order, built by
  /// the code that closed the round. The RunReport's `rounds` and
  /// windowed `series` are computed from these and the curve.
  std::vector<RoundProfile> rounds;
};

/// Interface every system implements: train on `data` over a simulated
/// `cluster`, recording an objective-vs-time curve.
class Trainer {
 public:
  explicit Trainer(TrainerConfig config);
  virtual ~Trainer() = default;

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  virtual std::string name() const = 0;

  /// Runs training to the configured limits. Deterministic given the
  /// config seeds.
  virtual TrainResult Train(const Dataset& data,
                            const ClusterConfig& cluster) = 0;

 protected:
  const TrainerConfig& config() const { return config_; }
  const LrSchedule& schedule() const { return schedule_; }

  /// The objective being trained (loss + regularizer). Trainers route
  /// every local computation through this.
  const GlmObjective& objective() const { return objective_; }
  const Regularizer& regularizer() const { return objective_.regularizer(); }

  /// Full objective f(w, X): MeanLoss over the dataset's rows, in
  /// dataset order, plus Ω(w) (host-side; costs no sim time — the paper
  /// also measures the objective out-of-band). Its host time is charged
  /// to the profiler's `eval` subsystem, one event per evaluation.
  double Eval(const Dataset& data, const DenseVector& w) const;

  /// True when the run should stop after observing `objective` having
  /// completed `step` communication steps.
  bool ShouldStop(int step, double objective) const;

  /// Detects a diverged run (non-finite or exploding objective).
  static bool IsDiverged(double objective);

  /// Intermediate aggregators for a treeAggregate over `k` executors:
  /// MLlib's default depth-2 tree of about sqrt(k).
  static size_t NumAggregators(size_t k);

  /// One Rng per worker, forked in worker order from `seed`.
  static std::vector<Rng> WorkerRngs(uint64_t seed, size_t k);

  /// Rows in a mini-batch of `fraction` of a partition: at least one,
  /// at most the whole partition, none for an empty one.
  static size_t BatchSize(size_t partition_size, double fraction);

  /// Copies a finished Spark run's virtual time, bytes, fault and
  /// membership stats into *result and moves its trace and round
  /// profiles there.
  static void FinishResult(SparkCluster* spark, TrainResult* result);

 private:
  TrainerConfig config_;
  GlmObjective objective_;
  LrSchedule schedule_;
};

/// Creates the trainer for `kind`.
std::unique_ptr<Trainer> MakeTrainer(SystemKind kind, TrainerConfig config);

}  // namespace mllibstar

#endif  // MLLIBSTAR_TRAIN_TRAINER_H_
