// The Spark engine's round times, written down in closed form and held
// to the engine per round (DESIGN §1, paper §III–IV).
//
// Each collective's timing rule is stated below on its own, apart from
// src/engine, in the alpha-beta terms of sim/network.h: α seconds per
// message, β bytes per second per full-duplex link, s work units per
// second per node. The rules are composed per system the way the
// trainers call the engine. The only thing taken from a run is each
// task's duration, read from TrainResult::trace, because it is the one
// input that depends on the data (and, on Cluster 2, on the jitter
// stream). Every round's span, compute, wait and comm time must then
// match to 1e-9 relative and its wire bytes exactly. Runs are full
// fleet, with no faults, task failures or churn.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

/// The alpha-beta constants of one cluster.
struct AlphaBeta {
  double latency = 0.0;    ///< α: seconds per message
  double bandwidth = 0.0;  ///< β: bytes per second per link
  double speed = 0.0;      ///< s: work units per second per node

  /// Seconds for `count` payloads of `bytes` through one link.
  double Payloads(double count, uint64_t bytes) const {
    return count * static_cast<double>(bytes) / bandwidth;
  }
  double Work(double units) const { return units / speed; }
};

/// Every node's clock inside one closed-form round. A round opens with
/// every clock at the previous round's barrier.
struct Clocks {
  std::vector<double> worker;
  double driver = 0.0;
};

/// What one closed-form round adds up to, in RoundProfile's terms.
struct Expected {
  double sim_start = 0.0;
  double sim_end = 0.0;
  double compute_sec = 0.0;
  double wait_sec = 0.0;
  double comm_sec = 0.0;
  WireTally wire;
};

// ---- The collectives ----------------------------------------------------

/// Broadcast: the driver's outbound link sends the k copies back to
/// back from its clock t, so executor i holds the model once i + 1
/// payloads have left, t + α + (i + 1)·b/β, and the driver is free at
/// t + α + k·b/β.
void Broadcast(const AlphaBeta& net, uint64_t bytes, Clocks* c,
               WireTally* wire) {
  const size_t k = c->worker.size();
  const double t = c->driver;
  for (size_t i = 0; i < k; ++i) {
    c->worker[i] = t + net.latency + net.Payloads(i + 1.0, bytes);
  }
  c->driver = t + net.latency + net.Payloads(k, bytes);
  wire->broadcast += bytes * k;
}

/// One task per executor: it starts at the executor's clock and runs
/// for the duration the run recorded. The round's compute time is the
/// durations' sum, its wait the time each task idled for the slowest
/// (Σ max end − end_i), and the batch covers first start to last end.
void Tasks(const std::vector<double>& durations, Clocks* c, Expected* e,
           double* covered) {
  const size_t k = c->worker.size();
  const double first_start =
      *std::min_element(c->worker.begin(), c->worker.end());
  for (size_t i = 0; i < k; ++i) {
    c->worker[i] += durations[i];
    e->compute_sec += durations[i];
  }
  const double last_end =
      *std::max_element(c->worker.begin(), c->worker.end());
  for (size_t i = 0; i < k; ++i) e->wait_sec += last_end - c->worker[i];
  *covered = last_end - first_start;
}

/// MLlib's treeAggregate over two levels. Executor i belongs to group
/// i mod g, g = max(1, ⌊√k⌋), and executor j aggregates group j. Level
/// 1: group j's n_j senders each send one b-byte payload, and the
/// aggregator's inbound link takes them back to back once the group's
/// last task has ended; it then merges n_j·m work units:
///   ready_j = max_{i ≡ j} end_i + α + n_j·b/β + n_j·m/s.
/// Level 2: each aggregator forwards its partial, and the driver's
/// inbound link takes the g partials back to back once the driver is
/// free and the last partial is ready; it then merges g·m units:
///   driver = max(driver, max_j ready_j) + α + g·b/β + g·m/s.
/// A sender is done once its payload has left (end_i + α + b/β), an
/// aggregator once its partial has (ready_j + α + b/β).
void TreeAggregate(const AlphaBeta& net, uint64_t bytes, uint64_t merge_units,
                   Clocks* c, WireTally* wire) {
  const size_t k = c->worker.size();
  const size_t g = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(k))));
  const double hop = net.latency + net.Payloads(1.0, bytes);
  double last_partial = c->driver;
  for (size_t j = 0; j < g; ++j) {
    double group_end = c->worker[j];
    size_t senders = 0;
    for (size_t i = j + g; i < k; i += g) {
      group_end = std::max(group_end, c->worker[i]);
      c->worker[i] += hop;
      ++senders;
    }
    ASSERT_GT(senders, 0u) << "every group has a sender at k >= 2";
    const double ready = group_end + net.latency +
                         net.Payloads(senders, bytes) +
                         net.Work(static_cast<double>(senders * merge_units));
    last_partial = std::max(last_partial, ready);
    c->worker[j] = ready + hop;
  }
  c->driver = last_partial + net.latency + net.Payloads(g, bytes) +
              net.Work(static_cast<double>(g * merge_units));
  wire->tree_aggregate += bytes * k;
}

/// All-to-all shuffle: it starts once the last executor is free, and
/// every link then carries k − 1 payloads of p bytes each way (full
/// duplex), so every executor finishes at max_i clock_i + α + (k−1)·p/β.
void ShuffleAllToAll(const AlphaBeta& net, uint64_t bytes_per_peer,
                     Clocks* c, WireTally* wire) {
  const size_t k = c->worker.size();
  const double start = *std::max_element(c->worker.begin(), c->worker.end());
  const double end =
      start + net.latency + net.Payloads(k - 1.0, bytes_per_peer);
  std::fill(c->worker.begin(), c->worker.end(), end);
  wire->shuffle += bytes_per_peer * k * (k - 1);
}

/// MLlib*'s range average: every executor averages the k contributions
/// to the d/k coordinates it owns, d work units without jitter.
void RangeAverage(const AlphaBeta& net, size_t d, Clocks* c) {
  for (double& clock : c->worker) clock += net.Work(static_cast<double>(d));
}

/// RunOnDriver: `units` of driver work without jitter.
void RunOnDriver(const AlphaBeta& net, uint64_t units, Clocks* c) {
  c->driver += net.Work(static_cast<double>(units));
}

// ---- The systems ---------------------------------------------------------

/// One round of `system` from barrier time t0 on k executors, with the
/// round's task durations in executor order.
Expected Round(SystemKind system, const AlphaBeta& net, size_t d,
               double t0, const std::vector<double>& durations) {
  const size_t k = durations.size();
  const uint64_t model_bytes = 8ull * d;
  Expected e;
  e.sim_start = t0;
  Clocks c;
  c.worker.assign(k, t0);
  c.driver = t0;
  double covered = 0.0;
  switch (system) {
    case SystemKind::kMllib:
    case SystemKind::kMllibMa:
    case SystemKind::kMllibLbfgs:
      // Broadcast w; one task per executor (a sampled batch's gradient,
      // a local pass, or the whole partition's loss and gradient);
      // treeAggregate with d merge units per payload; then the driver's
      // update (2d units), or its model average (d units) for MLlib+MA.
      Broadcast(net, model_bytes, &c, &e.wire);
      Tasks(durations, &c, &e, &covered);
      TreeAggregate(net, model_bytes, d, &c, &e.wire);
      RunOnDriver(net, system == SystemKind::kMllibMa ? d : 2 * d, &c);
      break;
    case SystemKind::kMllibStar: {
      // Local passes from the all-gathered model, Reduce-Scatter, the
      // range average, AllGather; one model range of ⌈d/k⌉ doubles per
      // peer pair. The driver is off the data path.
      const uint64_t range_bytes = 8ull * ((d + k - 1) / k);
      Tasks(durations, &c, &e, &covered);
      ShuffleAllToAll(net, range_bytes, &c, &e.wire);
      RangeAverage(net, d, &c);
      ShuffleAllToAll(net, range_bytes, &c, &e.wire);
      break;
    }
    default:
      ADD_FAILURE() << "not a Spark system: " << SystemName(system);
  }
  // The stage closes at a barrier over the driver and every executor;
  // comm is the span the task batch did not cover.
  e.sim_end = std::max(c.driver,
                       *std::max_element(c.worker.begin(), c.worker.end()));
  e.comm_sec = std::max(0.0, e.sim_end - e.sim_start - covered);
  return e;
}

/// The label the trainer gives each system's worker tasks.
const char* TaskLabel(SystemKind system) {
  switch (system) {
    case SystemKind::kMllib:
      return "gradient";
    case SystemKind::kMllibLbfgs:
      return "loss+grad";
    default:
      return "local-sgd";
  }
}

/// Each round's task durations in executor order, from the compute bars
/// the engine commits in executor order once per round.
std::vector<std::vector<double>> TaskDurations(const TrainResult& result,
                                               SystemKind system, size_t k) {
  std::vector<std::vector<double>> rounds;
  size_t next = 0;
  for (const TraceEvent& ev : result.trace.events()) {
    if (ev.kind != ActivityKind::kCompute || ev.detail != TaskLabel(system)) {
      continue;
    }
    if (next == 0) rounds.emplace_back();
    EXPECT_EQ(ev.node, "executor" + std::to_string(next + 1));
    rounds.back().push_back(ev.end - ev.start);
    next = (next + 1) % k;
  }
  return rounds;
}

void ExpectRelative(double actual, double expected, const std::string& what) {
  EXPECT_NEAR(actual, expected, 1e-9 * std::abs(expected)) << what;
}

struct CostCase {
  SystemKind system;
  size_t k;
  bool cluster2;
};

std::string CaseName(const CostCase& c) {
  std::string system;
  switch (c.system) {
    case SystemKind::kMllib:
      system = "mllib";
      break;
    case SystemKind::kMllibMa:
      system = "mllib_ma";
      break;
    case SystemKind::kMllibStar:
      system = "mllib_star";
      break;
    default:
      system = "mllib_lbfgs";
  }
  return system + "_k" + std::to_string(c.k) +
         (c.cluster2 ? "_cluster2" : "_cluster1");
}

// Printed in test listings instead of the struct's bytes.
void PrintTo(const CostCase& c, std::ostream* os) { *os << CaseName(c); }

class CostModelTest : public testing::TestWithParam<CostCase> {};

TEST_P(CostModelTest, EveryRoundMatchesTheClosedForm) {
  const CostCase& p = GetParam();
  SyntheticSpec spec;
  spec.name = "cost_model";
  spec.num_instances = 4096;  // 32 rows per partition at k = 128
  spec.num_features = 2000;
  spec.avg_nnz = 20;
  spec.seed = 31;
  const Dataset data = GenerateSynthetic(spec);

  ClusterConfig cluster = p.cluster2 ? ClusterConfig::Cluster2(p.k)
                                     : ClusterConfig::Cluster1(p.k);
  if (!p.cluster2) cluster.straggler_sigma = 0.0;
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.regularizer = RegularizerKind::kL2;
  config.lambda = 0.01;
  config.base_lr = 0.5;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 3;
  const TrainResult result = MakeTrainer(p.system, config)->Train(data, cluster);

  const AlphaBeta net{cluster.latency_sec, cluster.bandwidth_bytes_per_sec,
                      cluster.compute_speed};
  const std::vector<std::vector<double>> durations =
      TaskDurations(result, p.system, p.k);
  ASSERT_GE(result.rounds.size(), 3u);
  ASSERT_EQ(durations.size(), result.rounds.size());
  double t0 = 0.0;
  for (size_t r = 0; r < result.rounds.size(); ++r) {
    ASSERT_EQ(durations[r].size(), p.k) << "round " << r;
    const RoundProfile& got = result.rounds[r];
    const Expected want =
        Round(p.system, net, data.num_features(), t0, durations[r]);
    const std::string at = "round " + std::to_string(r);
    EXPECT_EQ(got.tasks, p.k) << at;
    ExpectRelative(got.sim_start, want.sim_start, at + " start");
    ExpectRelative(got.sim_end - got.sim_start, want.sim_end - want.sim_start,
                   at + " span");
    ExpectRelative(got.compute_sec, want.compute_sec, at + " compute");
    ExpectRelative(got.wait_sec, want.wait_sec, at + " wait");
    ExpectRelative(got.comm_sec, want.comm_sec, at + " comm");
    EXPECT_EQ(got.wire.broadcast, want.wire.broadcast) << at;
    EXPECT_EQ(got.wire.tree_aggregate, want.wire.tree_aggregate) << at;
    EXPECT_EQ(got.wire.shuffle, want.wire.shuffle) << at;
    EXPECT_EQ(got.wire.total(), want.wire.total()) << at;
    EXPECT_EQ(got.wire.retries, 0u) << at;
    t0 = want.sim_end;
  }
  ExpectRelative(result.sim_seconds, t0, "run end");
}

std::vector<CostCase> AllCases() {
  std::vector<CostCase> cases;
  for (SystemKind system : {SystemKind::kMllib, SystemKind::kMllibMa,
                            SystemKind::kMllibStar, SystemKind::kMllibLbfgs}) {
    for (size_t k : {8, 32, 128}) {
      for (bool cluster2 : {false, true}) cases.push_back({system, k, cluster2});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    SparkSystems, CostModelTest, testing::ValuesIn(AllCases()),
    [](const testing::TestParamInfo<CostCase>& info) {
      return CaseName(info.param);
    });

}  // namespace
}  // namespace mllibstar
