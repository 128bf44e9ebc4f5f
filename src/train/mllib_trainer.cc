#include "train/mllib_trainer.h"

#include <algorithm>
#include <cmath>

#include "comm/error_feedback.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/gd.h"
#include "data/partition.h"
#include "obs/engine_profiler.h"
#include "obs/round_profile.h"
#include "obs/telemetry.h"

namespace mllibstar {
namespace {

/// MLlib's default treeAggregate uses about sqrt(k) intermediate
/// aggregators (depth 2).
size_t DefaultAggregators(size_t k, size_t configured) {
  if (configured > 0) return std::min(configured, k);
  return std::max<size_t>(1, static_cast<size_t>(std::sqrt(
                                 static_cast<double>(k))));
}

std::vector<Rng> WorkerRngs(uint64_t seed, size_t k) {
  Rng root(seed);
  std::vector<Rng> rngs;
  rngs.reserve(k);
  for (size_t r = 0; r < k; ++r) rngs.push_back(root.Fork());
  return rngs;
}

size_t BatchSize(size_t partition_size, double fraction) {
  if (partition_size == 0) return 0;
  const double raw = fraction * static_cast<double>(partition_size);
  return std::clamp<size_t>(static_cast<size_t>(raw), 1, partition_size);
}

/// One convergence observation as a telemetry instant (host timeline)
/// plus a per-system eval counter. Pure reporting: the objective was
/// already computed for the curve.
void RecordEvalEvent(const std::string& system, int step, SimTime now,
                     double objective) {
  Telemetry& obs = Telemetry::Get();
  if (!obs.enabled()) return;
  obs.RecordEvent("eval", "trainer", now,
                  {{"system", system},
                   {"step", std::to_string(step)},
                   {"objective", FormatDouble(objective, 9)}});
  obs.metrics().Counter("train.evals", {{"system", system}}).Add();
  obs.ObserveSeries("objective", SeriesAgg::kMean, now, objective);
  obs.SampleWindows(now);
}

}  // namespace

TrainResult MllibTrainer::Train(const Dataset& data,
                                const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  SparkCluster spark(cluster, config().host_threads);
  const size_t k = spark.num_workers();
  const size_t d = ModelDim(data);
  const uint64_t model_bytes = codec().EncodedBytes(d);
  const size_t num_agg = DefaultAggregators(k, config().num_aggregators);

  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  std::vector<Rng> rngs = WorkerRngs(config().seed, k);

  DenseVector w = InitialWeights(d);
  // Per-worker gradient buffers, all +0.0 between steps; each lists
  // the coordinates its batch may write so the driver's fold sweeps
  // only those (DESIGN §16).
  std::vector<TouchedBuffer> gradients(
      k, TouchedBuffer(d, objective().CoordsPerFeature()));
  DenseVector gradient_sum(d);
  DenseVector w_decoded;  // the broadcast's decoded copy (lossy codecs)
  ErrorFeedback ef = MakeErrorFeedback(codec(), config().codec, k, d);

  int t0 = 0;
  {
    Checkpoint ck;
    if (TryResume(config().checkpoint, &ck)) {
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(CheckpointTag::kMllib));
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(config().num_classes));
      t0 = static_cast<int>(ck.TakeU64());
      w = ck.TakeVector();
      MLLIBSTAR_CHECK_EQ(w.dim(), d);
      TakeWorkerRngs(&ck, &rngs);
      TakeErrorFeedback(&ck, &ef);
      // Elastic state: fired churn events stay fired, partition
      // hosting and pending rebuilds resume exactly where they were.
      {
        std::vector<uint64_t> ewords(ck.TakeU64());
        for (uint64_t& ew : ewords) ew = ck.TakeU64();
        spark.RestoreElasticWords(ewords);
      }
      MLLIBSTAR_CHECK(ck.exhausted());
    }
  }

  result.curve.set_label(name());
  result.curve.Add(t0, 0.0, Eval(data, w));

  ScopedSpan run_span("train:" + name(), "trainer");
  for (int t = t0; t < config().max_comm_steps; ++t) {
    spark.BeginStage("iteration " + std::to_string(t));
    ScopedSpan iter_span("iteration " + std::to_string(t), "trainer");
    const SimTime iter_sim_start = spark.Now();
    RoundCollector round(name(), t, iter_sim_start, Telemetry::Get());

    // (1) Driver broadcasts the current model (through the codec:
    // executors compute at the model they actually received).
    spark.Broadcast(model_bytes, config().broadcast, "model-bcast");
    const DenseVector& w_recv = CodecBroadcast(codec(), w, &w_decoded);

    // (2) Executors compute batch gradients at the received model.
    // Each callback touches only its own gradient slot and Rng, so the
    // engine may run them host-parallel; the batch-size fold happens
    // below in fixed worker order.
    const std::vector<WorkerStats> step_stats =
        spark.RunOnWorkers("gradient", [&](size_t r) -> WorkerStats {
          WorkerStats ws;
          const CsrBlock& part = partitions[r];
          const size_t bsize =
              BatchSize(part.rows(), config().batch_fraction);
          if (bsize == 0) return ws;
          const std::vector<size_t> batch =
              SampleBatch(part.rows(), bsize, &rngs[r]);
          for (size_t i : batch) {
            gradients[r].Touch(part.row_indices(i), part.row_nnz(i));
          }
          const ComputeStats stats = objective().BatchGradient(
              part, batch, w_recv, gradients[r].mutable_vector());
          ws.work_units = stats.nnz_processed;
          ws.batch_size = batch.size();
          return ws;
        });
    uint64_t total_batch = 0;
    for (const WorkerStats& ws : step_stats) total_batch += ws.batch_size;

    // (3) Gradients flow to the driver through treeAggregate; each
    // worker's contribution crosses the codec (with error feedback).
    spark.TreeAggregate(model_bytes, num_agg, d, "grad-agg");

    // (4) The driver folds the received gradients in worker order and
    // applies the single update of this step. A lossy codec rewrites a
    // whole buffer, so its fold sweeps densely.
    {
      EngineProfiler::Scope fold_prof(Subsystem::kKernels);
      gradient_sum.SetZero();
      for (size_t r = 0; r < k; ++r) {
        if (!codec().lossless()) gradients[r].TouchAll();
        CodecTransmit(codec(), &ef, r, gradients[r].mutable_vector());
        gradients[r].FlushSum(&gradient_sum);
      }
      const double lr = schedule().LrAt(t);
      regularizer().ApplyGradientStep(&w, lr);
      if (total_batch > 0) {
        w.AddScaled(gradient_sum, -lr / static_cast<double>(total_batch));
      }
    }
    spark.RunOnDriver("model-update", 2 * d);
    ++result.total_model_updates;

    const SimTime now = spark.Barrier();
    iter_span.SetSimRange(iter_sim_start, now);
    round.Finish(now);
    if (ShouldCheckpoint(config().checkpoint, t + 1)) {
      Checkpoint ck;
      ck.PutU64(static_cast<uint64_t>(CheckpointTag::kMllib));
      ck.PutU64(static_cast<uint64_t>(config().num_classes));
      ck.PutU64(static_cast<uint64_t>(t + 1));
      ck.PutVector(w);
      PutWorkerRngs(&ck, rngs);
      PutErrorFeedback(&ck, ef);
      {
        const std::vector<uint64_t> ewords = spark.SaveElasticWords();
        ck.PutU64(ewords.size());
        for (uint64_t ew : ewords) ck.PutU64(ew);
      }
      MLLIBSTAR_CHECK_OK(ck.WriteFile(config().checkpoint.path));
    }
    if ((t + 1) % config().eval_every == 0 ||
        t + 1 == config().max_comm_steps) {
      const double objective = Eval(data, w);
      result.curve.Add(t + 1, now, objective);
      RecordEvalEvent(name(), t + 1, now, objective);
      result.comm_steps = t + 1;
      if (IsDiverged(objective)) {
        result.diverged = true;
        break;
      }
      if (ShouldStop(t + 1, now, objective)) break;
    } else {
      result.comm_steps = t + 1;
    }
  }
  run_span.SetSimRange(0.0, spark.Now());

  result.final_weights = std::move(w);
  result.sim_seconds = spark.Now();
  result.total_bytes = spark.total_bytes();
  result.faults = spark.sim().faults().stats();
  result.membership = spark.membership().stats();
  result.trace = std::move(spark.trace());
  return result;
}

TrainResult MllibMaTrainer::Train(const Dataset& data,
                                  const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  SparkCluster spark(cluster, config().host_threads);
  const size_t k = spark.num_workers();
  const size_t d = ModelDim(data);
  const uint64_t model_bytes = codec().EncodedBytes(d);
  const size_t num_agg = DefaultAggregators(k, config().num_aggregators);

  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  std::vector<Rng> rngs = WorkerRngs(config().seed, k);

  DenseVector w = InitialWeights(d);
  std::vector<DenseVector> locals(k, DenseVector(d));
  DenseVector w_decoded;  // the broadcast's decoded copy (lossy codecs)
  ErrorFeedback ef = MakeErrorFeedback(codec(), config().codec, k, d);
  std::vector<std::unique_ptr<LocalOptimizer>> optimizers;
  if (config().local_optimizer.kind != LocalOptimizerKind::kSgd) {
    for (size_t r = 0; r < k; ++r) {
      optimizers.push_back(MakeLocalOptimizer(config().local_optimizer, d));
    }
  }

  // Adaptive-optimizer moments are not serialized; checkpointing
  // requires the paper's plain SGD local passes.
  if (config().checkpoint.enabled()) MLLIBSTAR_CHECK(optimizers.empty());
  int t0 = 0;
  {
    Checkpoint ck;
    if (TryResume(config().checkpoint, &ck)) {
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(CheckpointTag::kMllibMa));
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(config().num_classes));
      t0 = static_cast<int>(ck.TakeU64());
      w = ck.TakeVector();
      MLLIBSTAR_CHECK_EQ(w.dim(), d);
      TakeWorkerRngs(&ck, &rngs);
      TakeErrorFeedback(&ck, &ef);
      // Elastic state: fired churn events stay fired, partition
      // hosting and pending rebuilds resume exactly where they were.
      {
        std::vector<uint64_t> ewords(ck.TakeU64());
        for (uint64_t& ew : ewords) ew = ck.TakeU64();
        spark.RestoreElasticWords(ewords);
      }
      MLLIBSTAR_CHECK(ck.exhausted());
    }
  }

  result.curve.set_label(name());
  result.curve.Add(t0, 0.0, Eval(data, w));

  ScopedSpan run_span("train:" + name(), "trainer");
  for (int t = t0; t < config().max_comm_steps; ++t) {
    spark.BeginStage("iteration " + std::to_string(t));
    ScopedSpan iter_span("iteration " + std::to_string(t), "trainer");
    const SimTime iter_sim_start = spark.Now();
    RoundCollector round(name(), t, iter_sim_start, Telemetry::Get());

    // (1) Driver broadcasts the current global model through the codec.
    spark.Broadcast(model_bytes, config().broadcast, "model-bcast");
    const DenseVector& w_recv = CodecBroadcast(codec(), w, &w_decoded);

    // (2) Executors run local SGD passes starting from it (SendModel).
    // Per-worker state only (own local model, own Rng, own optimizer);
    // the update counter folds below in fixed worker order.
    const double lr = schedule().LrAt(t);
    const std::vector<WorkerStats> step_stats =
        spark.RunOnWorkers("local-sgd", [&](size_t r) -> WorkerStats {
          locals[r] = w_recv;
          ComputeStats stats;
          for (size_t e = 0; e < std::max<size_t>(1, config().local_epochs);
               ++e) {
            stats += optimizers.empty()
                         ? objective().SgdEpoch(partitions[r], lr,
                                                &rngs[r], &locals[r])
                         : objective().OptimizerEpoch(partitions[r], lr,
                                                      optimizers[r].get(),
                                                      &rngs[r], &locals[r]);
          }
          WorkerStats ws;
          ws.work_units = stats.nnz_processed;
          ws.model_updates = stats.model_updates;
          return ws;
        });
    for (const WorkerStats& ws : step_stats) {
      result.total_model_updates += ws.model_updates;
    }

    // (3) Local models flow back through the same treeAggregate path,
    // each crossing the codec with per-worker error feedback.
    spark.TreeAggregate(model_bytes, num_agg, d, "model-agg");
    for (size_t r = 0; r < k; ++r) CodecTransmit(codec(), &ef, r, &locals[r]);

    // (4) Driver averages them into the new global model.
    w = Average(locals);
    spark.RunOnDriver("model-average", d);

    const SimTime now = spark.Barrier();
    iter_span.SetSimRange(iter_sim_start, now);
    round.Finish(now);
    if (ShouldCheckpoint(config().checkpoint, t + 1)) {
      Checkpoint ck;
      ck.PutU64(static_cast<uint64_t>(CheckpointTag::kMllibMa));
      ck.PutU64(static_cast<uint64_t>(config().num_classes));
      ck.PutU64(static_cast<uint64_t>(t + 1));
      ck.PutVector(w);
      PutWorkerRngs(&ck, rngs);
      PutErrorFeedback(&ck, ef);
      {
        const std::vector<uint64_t> ewords = spark.SaveElasticWords();
        ck.PutU64(ewords.size());
        for (uint64_t ew : ewords) ck.PutU64(ew);
      }
      MLLIBSTAR_CHECK_OK(ck.WriteFile(config().checkpoint.path));
    }
    if ((t + 1) % config().eval_every == 0 ||
        t + 1 == config().max_comm_steps) {
      const double objective = Eval(data, w);
      result.curve.Add(t + 1, now, objective);
      RecordEvalEvent(name(), t + 1, now, objective);
      result.comm_steps = t + 1;
      if (IsDiverged(objective)) {
        result.diverged = true;
        break;
      }
      if (ShouldStop(t + 1, now, objective)) break;
    } else {
      result.comm_steps = t + 1;
    }
  }
  run_span.SetSimRange(0.0, spark.Now());

  result.final_weights = std::move(w);
  result.sim_seconds = spark.Now();
  result.total_bytes = spark.total_bytes();
  result.faults = spark.sim().faults().stats();
  result.membership = spark.membership().stats();
  result.trace = std::move(spark.trace());
  return result;
}

TrainResult MllibStarTrainer::Train(const Dataset& data,
                                    const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  SparkCluster spark(cluster, config().host_threads);
  const size_t k = spark.num_workers();
  const size_t d = ModelDim(data);
  // Each shuffle moves one codec-encoded model partition (~d/k
  // coordinates) per peer pair.
  const uint64_t partition_bytes = codec().EncodedBytes((d + k - 1) / k);

  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  std::vector<Rng> rngs = WorkerRngs(config().seed, k);

  // Every executor holds a full copy of the model; ownership of the
  // k model ranges is logical (paper §IV-B2). Averaging range p over
  // all workers and concatenating equals the full average, so the
  // host-side math uses Average() directly while the engine charges
  // the two shuffles.
  DenseVector global = InitialWeights(d);
  std::vector<DenseVector> locals(k, global);
  ErrorFeedback ef = MakeErrorFeedback(codec(), config().codec, k, d);
  std::vector<std::unique_ptr<LocalOptimizer>> optimizers;
  if (config().local_optimizer.kind != LocalOptimizerKind::kSgd) {
    for (size_t r = 0; r < k; ++r) {
      optimizers.push_back(MakeLocalOptimizer(config().local_optimizer, d));
    }
  }

  // Adaptive-optimizer moments are not serialized; checkpointing
  // requires the paper's plain SGD local passes.
  if (config().checkpoint.enabled()) MLLIBSTAR_CHECK(optimizers.empty());
  int t0 = 0;
  {
    Checkpoint ck;
    if (TryResume(config().checkpoint, &ck)) {
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(CheckpointTag::kMllibStar));
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(config().num_classes));
      t0 = static_cast<int>(ck.TakeU64());
      global = ck.TakeVector();
      MLLIBSTAR_CHECK_EQ(global.dim(), d);
      TakeWorkerRngs(&ck, &rngs);
      TakeErrorFeedback(&ck, &ef);
      // Elastic state: fired churn events stay fired, partition
      // hosting and pending rebuilds resume exactly where they were.
      {
        std::vector<uint64_t> ewords(ck.TakeU64());
        for (uint64_t& ew : ewords) ew = ck.TakeU64();
        spark.RestoreElasticWords(ewords);
      }
      MLLIBSTAR_CHECK(ck.exhausted());
      // Every step ends with locals[r] == global (the AllGather), so
      // the step boundary needs no per-worker local models on disk.
      for (size_t r = 0; r < k; ++r) locals[r] = global;
    }
  }

  result.curve.set_label(name());
  result.curve.Add(t0, 0.0, Eval(data, global));

  ScopedSpan run_span("train:" + name(), "trainer");
  for (int t = t0; t < config().max_comm_steps; ++t) {
    spark.BeginStage("iteration " + std::to_string(t));
    ScopedSpan iter_span("iteration " + std::to_string(t), "trainer");
    const SimTime iter_sim_start = spark.Now();
    RoundCollector round(name(), t, iter_sim_start, Telemetry::Get());

    // (1) UpdateModel: local SGD passes over the whole partition,
    // host-parallel when configured (per-worker state only).
    const double lr = schedule().LrAt(t);
    const std::vector<WorkerStats> step_stats =
        spark.RunOnWorkers("local-sgd", [&](size_t r) -> WorkerStats {
          ComputeStats stats;
          for (size_t e = 0; e < std::max<size_t>(1, config().local_epochs);
               ++e) {
            stats += optimizers.empty()
                         ? objective().SgdEpoch(partitions[r], lr,
                                                &rngs[r], &locals[r])
                         : objective().OptimizerEpoch(partitions[r], lr,
                                                      optimizers[r].get(),
                                                      &rngs[r], &locals[r]);
          }
          WorkerStats ws;
          ws.work_units = stats.nnz_processed;
          ws.model_updates = stats.model_updates;
          return ws;
        });
    for (const WorkerStats& ws : step_stats) {
      result.total_model_updates += ws.model_updates;
    }

    // (2) Reduce-Scatter: everyone ships the ranges it does not own to
    // their owners (each piece crossing the codec, with per-worker
    // error feedback), then averages the range it owns.
    spark.ShuffleAllToAll(partition_bytes, "reduce-scatter");
    for (size_t r = 0; r < k; ++r) {
      // Averaging k contributions of d/k coordinates ~ d work units.
      spark.sim().ComputeExact(&spark.sim().worker(r), d,
                               ActivityKind::kAggregate, "range-average");
      CodecTransmit(codec(), &ef, r, &locals[r]);
    }
    global = Average(locals);

    // (3) AllGather: owners broadcast their averaged range; every
    // executor reassembles the full model from what the wire delivered.
    spark.ShuffleAllToAll(partition_bytes, "all-gather");
    CodecTransmit(codec(), nullptr, 0, &global);
    for (size_t r = 0; r < k; ++r) locals[r] = global;

    const SimTime now = spark.Barrier();
    iter_span.SetSimRange(iter_sim_start, now);
    round.Finish(now);
    if (ShouldCheckpoint(config().checkpoint, t + 1)) {
      Checkpoint ck;
      ck.PutU64(static_cast<uint64_t>(CheckpointTag::kMllibStar));
      ck.PutU64(static_cast<uint64_t>(config().num_classes));
      ck.PutU64(static_cast<uint64_t>(t + 1));
      ck.PutVector(global);
      PutWorkerRngs(&ck, rngs);
      PutErrorFeedback(&ck, ef);
      {
        const std::vector<uint64_t> ewords = spark.SaveElasticWords();
        ck.PutU64(ewords.size());
        for (uint64_t ew : ewords) ck.PutU64(ew);
      }
      MLLIBSTAR_CHECK_OK(ck.WriteFile(config().checkpoint.path));
    }
    if ((t + 1) % config().eval_every == 0 ||
        t + 1 == config().max_comm_steps) {
      const double objective = Eval(data, global);
      result.curve.Add(t + 1, now, objective);
      RecordEvalEvent(name(), t + 1, now, objective);
      result.comm_steps = t + 1;
      if (IsDiverged(objective)) {
        result.diverged = true;
        break;
      }
      if (ShouldStop(t + 1, now, objective)) break;
    } else {
      result.comm_steps = t + 1;
    }
  }
  run_span.SetSimRange(0.0, spark.Now());

  result.final_weights = std::move(global);
  result.sim_seconds = spark.Now();
  result.total_bytes = spark.total_bytes();
  result.faults = spark.sim().faults().stats();
  result.membership = spark.membership().stats();
  result.trace = std::move(spark.trace());
  return result;
}

}  // namespace mllibstar
