#include "train/mllib_trainer.h"

#include <algorithm>

#include "common/logging.h"
#include "core/gd.h"
#include "data/partition.h"
#include "obs/engine_profiler.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace mllibstar {

MllibTrainer::MllibTrainer(Mode mode, TrainerConfig config)
    : Trainer(std::move(config)), mode_(mode) {}

std::string MllibTrainer::name() const {
  switch (mode_) {
    case Mode::kMllib:
      return "mllib";
    case Mode::kMllibMa:
      return "mllib+ma";
    case Mode::kMllibStar:
      return "mllib*";
  }
  return "spark";
}

TrainResult MllibTrainer::Train(const Dataset& data,
                                const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  SparkCluster spark(cluster, config().host_threads);
  const size_t k = spark.num_workers();
  const size_t d = data.num_features();
  const uint64_t model_bytes = NetworkModel::DenseBytes(d);
  // Each MLlib* shuffle moves one dense model partition (~d/k
  // coordinates) per peer pair.
  const uint64_t partition_bytes = NetworkModel::DenseBytes((d + k - 1) / k);
  const size_t num_agg = NumAggregators(k);
  CheckpointTag tag = CheckpointTag::kMllib;
  if (mode_ == Mode::kMllibMa) tag = CheckpointTag::kMllibMa;
  if (mode_ == Mode::kMllibStar) tag = CheckpointTag::kMllibStar;

  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  std::vector<Rng> rngs = WorkerRngs(config().seed, k);

  // The global model. MLlib* executors each hold a full copy of it;
  // ownership of the k model ranges is logical (paper §IV-B2).
  // Averaging range p over all workers and concatenating equals the
  // full average, so the host-side math uses Average() directly while
  // the engine charges the two shuffles.
  DenseVector w(d);
  // SendGradient (MLlib): per-worker gradient buffers, all +0.0
  // between steps; each lists the coordinates its batch may write so
  // the driver's fold sweeps only those (DESIGN §16).
  std::vector<TouchedBuffer> gradients;
  DenseVector gradient_sum;
  if (mode_ == Mode::kMllib) {
    gradients.assign(k, TouchedBuffer(d));
    gradient_sum = DenseVector(d);
  }
  // SendModel (MLlib+MA, MLlib*): per-worker local models, each
  // overwritten by its task with the step's start model. Copying `w`
  // sizes them without a model-sized temporary, whose free would move
  // the allocator's mmap threshold (and the host page-fault count) for
  // later allocations.
  std::vector<DenseVector> locals(mode_ == Mode::kMllib ? 0 : k, w);

  int t0 = 0;
  {
    Checkpoint ck;
    if (TryResume(config().checkpoint, &ck)) {
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), static_cast<uint64_t>(tag));
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), 0u);  // reserved class-count word
      t0 = static_cast<int>(ck.TakeU64());
      w = ck.TakeVector();
      MLLIBSTAR_CHECK_EQ(w.dim(), d);
      TakeWorkerRngs(&ck, &rngs);
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), 0u);  // reserved residual-count word
      TakeElasticWords(&ck, &spark);
      MLLIBSTAR_CHECK(ck.exhausted());
    }
  }

  // The SendModel worker phase: every task copies the model it starts
  // from into its own local model and runs one local pass over its
  // partition. Per-worker state only (own local model and Rng), so the
  // engine may run the tasks host-parallel; the update counter folds in
  // fixed worker order.
  auto local_passes = [&](const DenseVector& start, double lr) {
    const std::vector<WorkerStats> step_stats =
        spark.RunOnWorkers("local-sgd", [&](size_t r) -> WorkerStats {
          locals[r] = start;
          const ComputeStats stats =
              objective().SgdEpoch(partitions[r], lr, &rngs[r], &locals[r]);
          WorkerStats ws;
          ws.work_units = stats.nnz_processed;
          ws.model_updates = stats.model_updates;
          return ws;
        });
    for (const WorkerStats& ws : step_stats) {
      result.total_model_updates += ws.model_updates;
    }
  };

  result.curve.set_label(name());
  result.curve.Add(t0, 0.0, Eval(partitions, w));

  ScopedSpan run_span("train:" + name(), "trainer");
  for (int t = t0; t < config().max_comm_steps; ++t) {
    spark.BeginStage("iteration " + std::to_string(t));
    ScopedSpan iter_span("iteration " + std::to_string(t), "trainer");
    const SimTime iter_sim_start = spark.Now();
    const double lr = schedule().LrAt(t);

    switch (mode_) {
      case Mode::kMllib: {
        // (1) Driver broadcasts the current model.
        spark.Broadcast(model_bytes, "model-bcast");

        // (2) Executors compute batch gradients at the broadcast model.
        // Each callback touches only its own gradient slot and Rng, so
        // the engine may run them host-parallel; the batch-size fold
        // happens below in fixed worker order.
        const std::vector<WorkerStats> step_stats =
            spark.RunOnWorkers("gradient", [&](size_t r) -> WorkerStats {
              WorkerStats ws;
              const CsrBlock& part = partitions[r];
              const size_t bsize =
                  BatchSize(part.rows(), config().batch_fraction);
              if (bsize == 0) return ws;
              const std::vector<size_t> batch =
                  SampleBatch(part.rows(), bsize, &rngs[r]);
              gradients[r].TouchRows(part, batch);
              const ComputeStats stats = objective().BatchGradient(
                  part, batch, w, gradients[r].mutable_vector());
              ws.work_units = stats.nnz_processed;
              ws.batch_size = batch.size();
              return ws;
            });
        uint64_t total_batch = 0;
        for (const WorkerStats& ws : step_stats) total_batch += ws.batch_size;

        // (3) Gradients flow to the driver through treeAggregate.
        spark.TreeAggregate(model_bytes, num_agg, d, "grad-agg");

        // (4) The driver folds the received gradients in worker order
        // and applies the single update of this step.
        {
          EngineProfiler::Scope fold_prof(Subsystem::kKernels);
          gradient_sum.SetZero();
          for (size_t r = 0; r < k; ++r) gradients[r].FlushSum(&gradient_sum);
          regularizer().ApplyGradientStep(&w, lr);
          if (total_batch > 0) {
            w.AddScaled(gradient_sum, -lr / static_cast<double>(total_batch));
          }
        }
        spark.RunOnDriver("model-update", 2 * d);
        ++result.total_model_updates;
        break;
      }
      case Mode::kMllibMa:
        // (1) Driver broadcasts the current global model; (2) executors
        // run local passes starting from it.
        spark.Broadcast(model_bytes, "model-bcast");
        local_passes(w, lr);

        // (3) Local models flow back through the same treeAggregate
        // path.
        spark.TreeAggregate(model_bytes, num_agg, d, "model-agg");

        // (4) Driver averages them into the new global model.
        w = Average(locals);
        spark.RunOnDriver("model-average", d);
        break;
      case Mode::kMllibStar:
        // (1) UpdateModel: local passes from the all-gathered model.
        local_passes(w, lr);

        // (2) Reduce-Scatter: everyone ships the ranges it does not own
        // to their owners, then averages the range it owns.
        spark.ShuffleAllToAll(partition_bytes, "reduce-scatter");
        for (size_t r = 0; r < k; ++r) {
          // Averaging k contributions of d/k coordinates ~ d work units.
          spark.sim().ComputeExact(&spark.sim().worker(r), d,
                                   ActivityKind::kAggregate, "range-average");
        }
        w = Average(locals);

        // (3) AllGather: owners broadcast their averaged range; every
        // executor reassembles the full model.
        spark.ShuffleAllToAll(partition_bytes, "all-gather");
        break;
    }

    const SimTime now = spark.EndStage(name(), t);
    iter_span.SetSimRange(iter_sim_start, now);
    if (ShouldCheckpoint(config().checkpoint, t + 1)) {
      // Every step's tasks start from `w`, so the step boundary needs
      // no per-worker local models on disk.
      Checkpoint ck;
      ck.PutU64(static_cast<uint64_t>(tag));
      ck.PutU64(0);  // reserved class-count word
      ck.PutU64(static_cast<uint64_t>(t + 1));
      ck.PutVector(w);
      PutWorkerRngs(&ck, rngs);
      ck.PutU64(0);  // reserved residual-count word
      PutElasticWords(&ck, spark);
      MLLIBSTAR_CHECK_OK(ck.WriteFile(config().checkpoint.path));
    }
    result.comm_steps = t + 1;
    if ((t + 1) % config().eval_every == 0 ||
        t + 1 == config().max_comm_steps) {
      const double objective = Eval(partitions, w);
      result.curve.Add(t + 1, now, objective);
      if (IsDiverged(objective)) {
        result.diverged = true;
        break;
      }
      if (ShouldStop(t + 1, objective)) break;
    }
  }
  run_span.SetSimRange(0.0, spark.Now());

  result.final_weights = std::move(w);
  FinishResult(&spark, &result);
  return result;
}

}  // namespace mllibstar
