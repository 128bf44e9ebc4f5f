#include "train/lbfgs_trainer.h"

#include <cmath>

#include "common/logging.h"
#include "core/gd.h"
#include "core/lbfgs.h"
#include "core/owlqn.h"
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
    // OWL-QN owns the ‖w‖₁ term of L1: the oracle returns the smooth
    // part only — mean loss plus the regularizer's smooth component
    // (spark.ml's LBFGS/OWLQN selection).
    regularizer().AddSmoothGradient(w, gradient);
    spark.RunOnDriver("lbfgs-direction", 2 * d);
    ++result.total_model_updates;

    const double smooth = loss_sum / n + regularizer().SmoothValue(w);
    const SimTime now = spark.EndStage(name(), passes);
    ++passes;
    pass_span.SetSimRange(pass_sim_start, now);
    // The recorded curve always shows the full objective.
    const double l1s = regularizer().l1_lambda();
    const double full = l1s > 0.0 ? smooth + l1s * w.Norm1() : smooth;
    result.curve.Add(passes, now, full);
    return smooth;
  };

  ScopedSpan run_span("train:" + name(), "trainer");
  LbfgsOptions options;
  // Each "communication step" budget unit buys one distributed pass.
  options.max_iterations = config().max_comm_steps;
  LbfgsResult solved;
  const double l1_strength = regularizer().l1_lambda();
  if (l1_strength > 0.0) {
    // OWL-QN carries orthant/pseudo-gradient state that is not
    // serialized; checkpointing covers the smooth L-BFGS path only.
    MLLIBSTAR_CHECK(!config().checkpoint.enabled());
    OwlqnSolver solver(options, l1_strength);
    solved = solver.Minimize(oracle, DenseVector(d));
  } else {
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
        const uint64_t m = ck.TakeU64();
        for (uint64_t i = 0; i < m; ++i) {
          state.s_history.push_back(ck.TakeVector());
          state.y_history.push_back(ck.TakeVector());
          state.rho_history.push_back(ck.TakeDouble());
        }
        MLLIBSTAR_CHECK_EQ(ck.TakeU64(), 0u);  // reserved residual-count word
        TakeElasticWords(&ck, &spark);
        MLLIBSTAR_CHECK(ck.exhausted());
      }
    }
    LbfgsSolver::IterationObserver observer;
    if (config().checkpoint.enabled() &&
        config().checkpoint.every_steps > 0) {
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
    solved = solver.MinimizeFrom(oracle, std::move(state), observer);
  }

  run_span.SetSimRange(0.0, spark.Now());
  result.comm_steps = passes;
  result.final_weights = std::move(solved.minimizer);
  result.diverged = !std::isfinite(solved.objective);
  FinishResult(&spark, &result);
  return result;
}

}  // namespace mllibstar
