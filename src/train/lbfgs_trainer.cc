#include "train/lbfgs_trainer.h"

#include <cmath>

#include "comm/error_feedback.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/gd.h"
#include "core/lbfgs.h"
#include "core/owlqn.h"
#include "data/partition.h"
#include "obs/round_profile.h"
#include "obs/telemetry.h"

namespace mllibstar {

TrainResult MllibLbfgsTrainer::Train(const Dataset& data,
                                     const ClusterConfig& cluster) {
  TrainResult result;
  result.system = name();

  SparkCluster spark(cluster, config().host_threads);
  const size_t k = spark.num_workers();
  const size_t d = ModelDim(data);
  const uint64_t model_bytes = codec().EncodedBytes(d);
  const size_t num_agg = std::max<size_t>(
      1, config().num_aggregators != 0
             ? config().num_aggregators
             : static_cast<size_t>(std::sqrt(static_cast<double>(k))));

  std::vector<CsrBlock> partitions = PartitionCsr(data, k);
  const double n = static_cast<double>(data.size());

  result.curve.set_label(name());

  // One distributed pass per oracle call. The gradient payload is the
  // model-sized dense vector plus the scalar loss.
  int passes = 0;
  std::vector<DenseVector> worker_gradients(k, DenseVector(d));
  DenseVector w_decoded;  // the broadcast's decoded copy (lossy codecs)
  ErrorFeedback ef = MakeErrorFeedback(codec(), config().codec, k, d);
  auto oracle = [&](const DenseVector& w, DenseVector* gradient) -> double {
    spark.BeginStage("lbfgs pass " + std::to_string(passes));
    ScopedSpan pass_span("lbfgs pass " + std::to_string(passes), "trainer");
    const SimTime pass_sim_start = spark.Now();
    RoundCollector round(name(), passes, pass_sim_start, Telemetry::Get());
    spark.Broadcast(model_bytes, config().broadcast, "model-bcast");
    const DenseVector& w_recv = CodecBroadcast(codec(), w, &w_decoded);

    // Fused margin -> loss + derivative -> axpy pass over each CSR
    // partition. Each callback owns its gradient slot and returns its
    // partial loss; the fold below runs in fixed worker order (the old
    // shared `loss_sum +=` capture would race under host parallelism).
    const std::vector<WorkerStats> pass_stats =
        spark.RunOnWorkers("loss+grad", [&](size_t r) -> WorkerStats {
          worker_gradients[r].SetZero();
          WorkerStats ws;
          const ComputeStats stats = objective().LossGradient(
              partitions[r], w_recv, &worker_gradients[r], &ws.loss_sum);
          ws.work_units = stats.nnz_processed;
          return ws;
        });
    double loss_sum = 0.0;
    for (const WorkerStats& ws : pass_stats) loss_sum += ws.loss_sum;

    spark.TreeAggregate(model_bytes, num_agg, d, "grad-agg");

    gradient->SetZero();
    for (size_t r = 0; r < k; ++r) {
      CodecTransmit(codec(), &ef, r, &worker_gradients[r]);
      gradient->AddScaled(worker_gradients[r], 1.0);
    }
    gradient->Scale(1.0 / n);
    // OWL-QN owns any ‖w‖₁ term (pure L1, or the L1 part of elastic
    // net): the oracle returns the smooth part only — mean loss plus
    // the regularizer's smooth (L2) component (spark.ml's LBFGS/OWLQN
    // selection).
    regularizer().AddSmoothGradient(w, gradient);
    spark.RunOnDriver("lbfgs-direction", 2 * d);
    ++passes;
    ++result.total_model_updates;

    const double smooth = loss_sum / n + regularizer().SmoothValue(w);
    const SimTime now = spark.Barrier();
    pass_span.SetSimRange(pass_sim_start, now);
    round.Finish(now);
    // The recorded curve always shows the full objective.
    const double l1s = regularizer().l1_lambda();
    const double full = l1s > 0.0 ? smooth + l1s * w.Norm1() : smooth;
    result.curve.Add(passes, now, full);
    {
      Telemetry& obs = Telemetry::Get();
      if (obs.enabled()) {
        obs.RecordEvent("eval", "trainer", now,
                        {{"system", name()},
                         {"step", std::to_string(passes)},
                         {"objective", FormatDouble(full, 9)}});
        obs.metrics().Counter("train.evals", {{"system", name()}}).Add();
        obs.ObserveSeries("objective", SeriesAgg::kMean, now, full);
        obs.SampleWindows(now);
      }
    }
    return smooth;
  };

  ScopedSpan run_span("train:" + name(), "trainer");
  LbfgsOptions options;
  // Each "communication step" budget unit buys one distributed pass.
  options.max_iterations = config().max_comm_steps;
  // The path driver's per-solve stopping rule maps onto the solver's
  // relative-improvement tolerance — this is what makes warm-started
  // solves finish in fewer passes.
  if (config().stop_rel_improvement.has_value()) {
    options.objective_tolerance = *config().stop_rel_improvement;
  }
  LbfgsResult solved;
  const double l1_strength = regularizer().l1_lambda();
  if (l1_strength > 0.0) {
    // OWL-QN carries orthant/pseudo-gradient state that is not
    // serialized; checkpointing covers the smooth L-BFGS path only.
    MLLIBSTAR_CHECK(!config().checkpoint.enabled());
    OwlqnSolver solver(options, l1_strength);
    solved = solver.Minimize(oracle, InitialWeights(d));
  } else {
    LbfgsSolver solver(options);
    LbfgsState state;
    state.x = InitialWeights(d);
    {
      Checkpoint ck;
      if (TryResume(config().checkpoint, &ck)) {
        MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                           static_cast<uint64_t>(CheckpointTag::kLbfgs));
        MLLIBSTAR_CHECK_EQ(ck.TakeU64(),
                           static_cast<uint64_t>(config().num_classes));
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
    LbfgsSolver::IterationObserver observer;
    if (config().checkpoint.enabled() &&
        config().checkpoint.every_steps > 0) {
      observer = [&](const LbfgsState& st) {
        if (!ShouldCheckpoint(config().checkpoint, st.iteration)) return;
        Checkpoint ck;
        ck.PutU64(static_cast<uint64_t>(CheckpointTag::kLbfgs));
        ck.PutU64(static_cast<uint64_t>(config().num_classes));
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
        PutErrorFeedback(&ck, ef);
        {
          const std::vector<uint64_t> ewords = spark.SaveElasticWords();
          ck.PutU64(ewords.size());
          for (uint64_t ew : ewords) ck.PutU64(ew);
        }
        MLLIBSTAR_CHECK_OK(ck.WriteFile(config().checkpoint.path));
      };
    }
    solved = solver.MinimizeFrom(oracle, std::move(state), observer);
  }

  run_span.SetSimRange(0.0, spark.Now());
  result.comm_steps = passes;
  result.final_weights = std::move(solved.minimizer);
  result.diverged = !std::isfinite(solved.objective);
  result.sim_seconds = spark.Now();
  result.total_bytes = spark.total_bytes();
  result.faults = spark.sim().faults().stats();
  result.membership = spark.membership().stats();
  result.trace = std::move(spark.trace());
  return result;
}

}  // namespace mllibstar
