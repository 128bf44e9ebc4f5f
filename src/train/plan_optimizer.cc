#include "train/plan_optimizer.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mllibstar {
namespace {

/// Work units (sparse coordinates touched) for one pass over `nnz`
/// stored values: one read for the margin, one write for the update.
double PassWork(double nnz) { return 2.0 * nnz; }

}  // namespace

PlanCost EstimateStepCost(SystemKind system, const DatasetStats& stats,
                          const ClusterConfig& cluster,
                          const TrainerConfig& config) {
  PlanCost cost;
  cost.system = system;

  const double k = static_cast<double>(cluster.num_workers);
  const double d = static_cast<double>(stats.num_features);
  const double model_bytes = 8.0 * d;
  const double bw = cluster.bandwidth_bytes_per_sec;
  const double lat = cluster.latency_sec;
  const double speed = cluster.compute_speed;
  const double partition_rows =
      static_cast<double>(stats.num_instances) / k;
  const double partition_nnz = static_cast<double>(stats.total_nnz) / k;
  const double batch_rows =
      std::max(1.0, config.batch_fraction * partition_rows);
  const double batch_nnz = batch_rows * stats.avg_nnz_per_row;
  const double aggregators = std::max(1.0, std::floor(std::sqrt(k)));
  const double shards =
      std::max<double>(1.0, static_cast<double>(config.ps.num_shards));
  const bool regularized = config.regularizer != RegularizerKind::kNone;

  switch (system) {
    case SystemKind::kMllib: {
      // Broadcast (driver-serialized) + batch gradient + treeAggregate
      // + driver update; one global update per step.
      cost.driver_seconds = lat + k * model_bytes / bw            // bcast
                            + lat + aggregators * model_bytes / bw  // gather
                            + (2.0 * d + aggregators * d) / speed;  // update
      cost.compute_seconds = PassWork(batch_nnz) / speed;
      cost.network_seconds =
          lat + (k / aggregators) * model_bytes / bw;  // level-1 fan-in
      cost.updates_per_step = 1.0;
      break;
    }
    case SystemKind::kMllibLbfgs: {
      // Full-pass gradient, same driver-centric collectives.
      cost.driver_seconds = lat + k * model_bytes / bw +
                            lat + aggregators * model_bytes / bw +
                            (2.0 * d + aggregators * d) / speed;
      cost.compute_seconds = PassWork(partition_nnz) / speed;
      cost.network_seconds =
          lat + (k / aggregators) * model_bytes / bw;
      cost.updates_per_step = 1.0;
      break;
    }
    case SystemKind::kMllibMa: {
      cost.driver_seconds = lat + k * model_bytes / bw +
                            lat + aggregators * model_bytes / bw +
                            (d + aggregators * d) / speed;
      cost.compute_seconds = PassWork(partition_nnz) / speed;
      cost.network_seconds =
          lat + (k / aggregators) * model_bytes / bw;
      cost.updates_per_step = partition_rows;
      break;
    }
    case SystemKind::kMllibStar: {
      // Two all-to-all shuffles of d/k pieces + range averaging; no
      // driver at all.
      cost.compute_seconds = PassWork(partition_nnz) / speed;
      cost.network_seconds =
          2.0 * (lat + (k - 1.0) * (model_bytes / k) / bw) + d / speed;
      cost.driver_seconds = 0.0;
      cost.updates_per_step = partition_rows;
      break;
    }
    case SystemKind::kPetuum:
    case SystemKind::kPetuumStar: {
      // Per-batch pull + local work + sparse push. With regularization
      // each step is one dense batch-GD update.
      const double pull =
          std::max(lat + model_bytes / bw, k * model_bytes / (shards * bw));
      const double push_bytes =
          std::min(12.0 * batch_nnz, model_bytes);
      const double push =
          std::max(lat + push_bytes / bw, k * push_bytes / (shards * bw));
      cost.network_seconds = pull + push;
      if (regularized) {
        cost.compute_seconds = (PassWork(batch_nnz) + 2.0 * d) / speed;
        cost.updates_per_step = 1.0;
      } else {
        cost.compute_seconds = PassWork(batch_nnz) / speed;
        cost.updates_per_step = batch_rows;
      }
      break;
    }
    case SystemKind::kAngel: {
      // Per-epoch pull/push; batch GD locally with per-batch buffer
      // allocation overhead.
      const double num_batches = std::max(1.0, partition_rows / batch_rows);
      const double pull =
          std::max(lat + model_bytes / bw, k * model_bytes / (shards * bw));
      const double push_bytes =
          std::min(12.0 * partition_nnz, model_bytes);
      const double push =
          std::max(lat + push_bytes / bw, k * push_bytes / (shards * bw));
      cost.network_seconds = pull + push;
      double work = 1.5 * PassWork(partition_nnz);
      if (regularized) work += num_batches * 2.0 * d;
      work += num_batches * d / 4.0;
      cost.compute_seconds = work / speed;
      cost.updates_per_step = num_batches;
      break;
    }
  }
  cost.step_seconds =
      cost.compute_seconds + cost.network_seconds + cost.driver_seconds;
  return cost;
}

PlanRecommendation RecommendPlan(const DatasetStats& stats,
                                 const ClusterConfig& cluster,
                                 const TrainerConfig& config,
                                 double target_updates) {
  if (target_updates <= 0.0) {
    target_updates = 5.0 * static_cast<double>(stats.num_instances);
  }
  PlanRecommendation rec;
  for (SystemKind system :
       {SystemKind::kMllib, SystemKind::kMllibMa, SystemKind::kMllibStar,
        SystemKind::kPetuumStar, SystemKind::kAngel}) {
    rec.ranked.push_back(EstimateStepCost(system, stats, cluster, config));
  }
  // Time to deliver target_updates local updates. This is the paper's
  // §II-B argument quantified: convergence tracks update count, so a
  // system's standing is (seconds per step) / (updates per step). The
  // proxy undervalues batch-GD updates (one batch update > one SGD
  // update), which is why SendGradient systems rank last by a wider
  // margin than their true convergence gap — the ordering still
  // matches the paper's measurements.
  std::sort(rec.ranked.begin(), rec.ranked.end(),
            [&](const PlanCost& a, const PlanCost& b) {
              return a.step_seconds * (target_updates / a.updates_per_step) <
                     b.step_seconds * (target_updates / b.updates_per_step);
            });

  const PlanCost& best = rec.ranked.front();
  const PlanCost& worst = rec.ranked.back();
  std::ostringstream os;
  os << "recommend " << SystemName(best.system) << ": "
     << best.updates_per_step << " updates per "
     << best.step_seconds << "s step";
  if (best.driver_seconds == 0.0) {
    os << " (no driver on the data path)";
  }
  os << "; worst is " << SystemName(worst.system) << " at "
     << worst.updates_per_step << " updates per " << worst.step_seconds
     << "s step";
  const PlanCost* mllib = nullptr;
  for (const PlanCost& c : rec.ranked) {
    if (c.system == SystemKind::kMllib) mllib = &c;
  }
  if (mllib != nullptr &&
      mllib->driver_seconds > mllib->compute_seconds) {
    os << "; mllib's step is driver-bound (" << mllib->driver_seconds
       << "s of " << mllib->step_seconds << "s), the paper's bottleneck B1";
  }
  rec.rationale = os.str();
  return rec;
}

}  // namespace mllibstar
