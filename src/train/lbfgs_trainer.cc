#include "train/lbfgs_trainer.h"

#include <cmath>

#include "common/logging.h"
#include "core/gd.h"
#include "core/lbfgs.h"
#include "data/partition.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace mllibstar {

TrainResult MllibLbfgsTrainer::Train(const Dataset& data,
                                     const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  SparkCluster spark(cluster, config().host_threads);
  const size_t k = spark.num_workers();
  const size_t d = data.num_features();
  const uint64_t model_bytes = NetworkModel::DenseBytes(d);
  const size_t num_agg = NumAggregators(k);

  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  const double n = static_cast<double>(data.size());

  result.curve.set_label(name());

  // One distributed pass per oracle call. The gradient payload is the
  // model-sized dense vector plus the scalar loss.
  int passes = 0;
  std::vector<DenseVector> worker_gradients(k, DenseVector(d));
  auto oracle = [&](const DenseVector& w, DenseVector* gradient) -> double {
    spark.BeginStage("lbfgs pass " + std::to_string(passes));
    ScopedSpan pass_span("lbfgs pass " + std::to_string(passes), "trainer");
    const SimTime pass_sim_start = spark.Now();
    spark.Broadcast(model_bytes, "model-bcast");

    // Fused margin -> loss + derivative -> axpy pass over each CSR
    // partition. Each callback owns its gradient slot and returns its
    // partial loss; the fold below runs in fixed worker order (the old
    // shared `loss_sum +=` capture would race under host parallelism).
    const std::vector<WorkerStats> pass_stats =
        spark.RunOnWorkers("loss+grad", [&](size_t r) -> WorkerStats {
          worker_gradients[r].SetZero();
          WorkerStats ws;
          const ComputeStats stats = objective().LossGradient(
              partitions[r], w, &worker_gradients[r], &ws.loss_sum);
          ws.work_units = stats.nnz_processed;
          return ws;
        });
    double loss_sum = 0.0;
    for (const WorkerStats& ws : pass_stats) loss_sum += ws.loss_sum;

    spark.TreeAggregate(model_bytes, num_agg, d, "grad-agg");

    gradient->SetZero();
    for (size_t r = 0; r < k; ++r) {
      gradient->AddScaled(worker_gradients[r], 1.0);
    }
    gradient->Scale(1.0 / n);
    // The full objective: mean loss plus Ω(w).
    regularizer().AddGradient(w, gradient);
    spark.RunOnDriver("lbfgs-direction", 2 * d);
    ++result.total_model_updates;

    const double value = loss_sum / n + regularizer().Value(w);
    const SimTime now = spark.EndStage(name(), passes);
    ++passes;
    pass_span.SetSimRange(pass_sim_start, now);
    result.curve.Add(passes, now, value);
    return value;
  };

  ScopedSpan run_span("train:" + name(), "trainer");
  LbfgsOptions options;
  // The communication-step budget caps accepted iterations, not
  // passes: the run makes one initial pass plus one per line-search
  // evaluation, so a run that spends the whole budget reports more
  // passes than it (one even at a budget of 0).
  options.max_iterations = config().max_comm_steps;
  LbfgsSolver solver(options);
  LbfgsState state;
  state.x = DenseVector(d);
  {
    Checkpoint ck;
    if (TryResume(config().checkpoint, &ck)) {
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                         static_cast<uint64_t>(CheckpointTag::kLbfgs));
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), 0u);  // reserved class-count word
      state.iteration = static_cast<int>(ck.TakeU64());
      state.evaluated = ck.TakeU64() != 0;
      state.objective = ck.TakeDouble();
      state.x = ck.TakeVector();
      state.gradient = ck.TakeVector();
      MLLIBSTAR_CHECK_EQ(state.x.dim(), d);
      MLLIBSTAR_CHECK_EQ(state.gradient.dim(), d);
      const uint64_t m = ck.TakeU64();
      MLLIBSTAR_CHECK_LE(m, options.history)
          << "checkpoint holds more correction pairs than the history";
      for (uint64_t i = 0; i < m; ++i) {
        state.s_history.push_back(ck.TakeVector());
        state.y_history.push_back(ck.TakeVector());
        state.rho_history.push_back(ck.TakeDouble());
        MLLIBSTAR_CHECK_EQ(state.s_history.back().dim(), d);
        MLLIBSTAR_CHECK_EQ(state.y_history.back().dim(), d);
      }
      MLLIBSTAR_CHECK_EQ(ck.TakeU64(), 0u);  // reserved residual-count word
      TakeElasticWords(&ck, &spark);
      MLLIBSTAR_CHECK(ck.exhausted());
    }
  }
  LbfgsSolver::IterationObserver observer;
  if (config().checkpoint.enabled() && config().checkpoint.every_steps > 0) {
    observer = [&](const LbfgsState& st) {
      if (!ShouldCheckpoint(config().checkpoint, st.iteration)) return;
      Checkpoint ck;
      ck.PutU64(static_cast<uint64_t>(CheckpointTag::kLbfgs));
      ck.PutU64(0);  // reserved class-count word
      ck.PutU64(static_cast<uint64_t>(st.iteration));
      ck.PutU64(st.evaluated ? 1 : 0);
      ck.PutDouble(st.objective);
      ck.PutVector(st.x);
      ck.PutVector(st.gradient);
      ck.PutU64(st.s_history.size());
      for (size_t i = 0; i < st.s_history.size(); ++i) {
        ck.PutVector(st.s_history[i]);
        ck.PutVector(st.y_history[i]);
        ck.PutDouble(st.rho_history[i]);
      }
      ck.PutU64(0);  // reserved residual-count word
      PutElasticWords(&ck, spark);
      MLLIBSTAR_CHECK_OK(ck.WriteFile(config().checkpoint.path));
    };
  }
  const LbfgsResult solved =
      solver.MinimizeFrom(oracle, std::move(state), observer);

  run_span.SetSimRange(0.0, spark.Now());
  result.comm_steps = passes;
  result.final_weights = std::move(solved.minimizer);
  result.diverged = !std::isfinite(solved.objective);
  FinishResult(&spark, &result);
  return result;
}

}  // namespace mllibstar
