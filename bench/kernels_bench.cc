// Kernel-perf trajectory harness for the SIMD-dispatched CSR kernels
// (DESIGN §13): sweeps kernel × dispatch level × nnz regime with a
// min-of-repetitions timer, pairing every gated ratio's two sides in
// one interleaved loop, and writes the machine-readable
// results/BENCH_kernels.json.
//
// Unlike the figure harnesses this one also *gates*: it exits 2 when
// (a) the best vectorized sparse dot — the margin kernel, where
// vectorization actually acts — fails to reach --min-speedup over
// scalar on the large-nnz regime, (b) the fused loss-gradient pass
// fails the no-regression floor (the fused number is structurally
// capped well below the dot's speedup: roughly half its time is the
// store-bound sparse axpy plus the per-row loss derivative, neither
// of which vectorization can accelerate much), (c) a vectorized fused
// pass's loss or any coordinate of its gradient is not bit-identical
// to the scalar one, (d) evaluating the objective over the dataset's
// value-free packed rows disagrees with, or is slower than, the walk
// over the same rows as DataPoints, (e) SampleBatch draws other rows,
// in another order, or leaves the Rng elsewhere than the hash-set
// Floyd it replaced, (f) SampleBatch fails to beat that reference
// by the sampler floor at the kdd12 shape, (g) a block margin, or a
// loss sum or gradient taken from block margins, is not bit-identical
// to the per-row loop's, or (h) the block path's batch gradients at
// the kdd12 shape fail to beat the per-row loop by the row-margins
// floor. A report-only case (partition_walk) times one worker's walks
// over its partition block against the same rows listed into the
// dataset's row store; they must agree bit for bit, with no perf gate.
// CI runs it as a smoke check so kernel regressions fail the
// build, and the committed JSON pairs with
// results/BENCH_kernels_scalar.json (a forced-scalar run) to record
// the before/after speedup trajectory.
//
// Flags: --min-speedup=<x> (default 1.15), --repetitions=<n> (default
// 7), --out=<filename> (default BENCH_kernels.json).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/csr_block.h"
#include "core/gd.h"
#include "core/loss.h"
#include "core/model.h"
#include "core/regularizer.h"
#include "core/simd/dispatch.h"
#include "core/vector.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "workloads/objective.h"

namespace mllibstar {
namespace {

// No-regression floor for the fused loss-gradient pass: the best
// vectorized configuration must beat scalar by at least this much on
// the large-nnz regime. Kept deliberately modest — the fused pass
// spends ~half its time in the sparse axpy (store-bound, caps near
// 1.15×) and the per-row loss derivative, so a 1.3× dot moves the
// fused number to ~1.2× (Amdahl). Clamped down to
// --min-speedup so a CI run with a relaxed gate (unknown machine)
// relaxes this floor too.
constexpr double kFusedFloor = 1.1;

// Gate (a)'s bound when --min-speedup is not given.
constexpr double kDefaultMinSpeedup = 1.15;

// Speedup floor for the bitmap SampleBatch over the hash-set reference
// at the kdd12 shape (18,705 rows, 1,870 drawn). Like the fused floor
// it relaxes with the gate: a run that sets --min-speedup below its
// default clamps this floor to it.
constexpr double kSampleFloor = 2.0;

// Partition rows and batch sizes of the figure workloads' mini-batches,
// then one shape for each other branch of SampleBatch. The first is
// the gated one.
struct SampleShape {
  size_t n;
  size_t batch_size;
};
constexpr SampleShape kSampleShapes[] = {
    {18705, 1870}, {18705, 187}, {2408, 24}, {2408, 120},
    {2408, 481},   {1812, 72},   {2408, 602}, {2408, 0},
};

// Speedup floor for the block path's batch gradients over the per-row
// loop at the first batch shape. Measured 1.33-1.50x with the kernel's
// prefetch and 1.05-1.07x without it, so the floor fails a block path
// that lost its prefetch. It relaxes with the gate like the sampler
// floor.
constexpr double kRowMarginsFloor = 1.2;

// The figure workloads' mini-batches: the dataset, its partition count,
// and the rows drawn per batch from a partition (fig4 kdd12 at batch
// fractions 0.1 and 0.01, fig5 kddb at 0.05 and 0.01, fig6 WX on 128
// machines at 0.04). The first is the gated one.
struct BatchShape {
  const char* dataset;
  size_t partitions;
  size_t batch_size;
};
constexpr BatchShape kBatchShapes[] = {
    {"kdd12", 8, 1870}, {"kdd12", 8, 187}, {"kddb", 8, 120},
    {"kddb", 8, 24},    {"wx", 128, 72},
};

// The figure workloads' partitions (fig4 kdd12 on 8 workers, fig5 kddb
// on 8, fig6 WX on 128), the rows a batch draws there and the L2 weight
// the workload trains with.
struct WalkShape {
  const char* dataset;
  size_t partitions;
  size_t batch_size;
  double lambda;
};
constexpr WalkShape kWalkShapes[] = {
    {"kdd12", 8, 1870, 0.1}, {"kddb", 8, 120, 0.1}, {"wx", 128, 72, 0.0}};

// Sampled batches per partition_walk batch pass.
constexpr size_t kWalkBatches = 30;

struct Regime {
  const char* name;
  size_t dim;      // model dimension
  size_t nnz;      // nonzeros per row
  size_t rows;     // rows for the fused CSR pass
};

// small = cache-missing gathers dominate; large = cache-resident
// model where vector arithmetic dominates (the regime the perf gate
// applies to).
constexpr Regime kRegimes[] = {
    {"small_nnz", 1u << 18, 20, 4096},
    {"mid_nnz", 1u << 14, 128, 1024},
    {"large_nnz", 4096, 512, 512},
};

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Min-of-`reps` timer: runs `fn()` (one timed pass) `reps` times and
// returns the fastest wall nanoseconds. Scheduler preemption, steal
// time, and frequency dips only ever *add* time, so the minimum is
// the most stable estimate of the kernel's true cost on a shared
// box — median still wobbled ±30% run-to-run here.
template <typename F>
double MinNs(F&& fn, int reps) {
  double best = 0.0;
  fn();  // warm-up (page-in, branch predictors)
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowNs();
    fn();
    const double ns = NowNs() - t0;
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

// Fastest nanoseconds of each side of a paired timing.
struct PairedNs {
  double ref = 0.0;
  double fn = 0.0;
};

// Paired min-of-`reps` timer for every ratio a gate reads: after one
// warm-up of each, times `ref()` and `fn()` back to back inside one
// loop, alternating which runs first, and keeps each side's fastest
// pass. Host-speed drift then cancels out of ref / fn, and neither
// side always runs on the cache state the other leaves.
template <typename R, typename F>
PairedNs PairedMinNs(R&& ref, F&& fn, int reps) {
  auto time = [](auto& pass) {
    const double t0 = NowNs();
    pass();
    return NowNs() - t0;
  };
  PairedNs best;
  ref();  // warm-up
  fn();
  for (int r = 0; r < reps; ++r) {
    double ref_ns = 0.0;
    double fn_ns = 0.0;
    if (r % 2 == 0) {
      ref_ns = time(ref);
      fn_ns = time(fn);
    } else {
      fn_ns = time(fn);
      ref_ns = time(ref);
    }
    if (r == 0 || ref_ns < best.ref) best.ref = ref_ns;
    if (r == 0 || fn_ns < best.fn) best.fn = fn_ns;
  }
  return best;
}

// One sparse row: sorted unique indices into [0, dim).
struct SparseRow {
  std::vector<FeatureIndex> indices;
  std::vector<double> values;
};

SparseRow MakeRow(size_t dim, size_t nnz, Rng* rng) {
  SparseRow row;
  std::vector<char> used(dim, 0);
  while (row.indices.size() < nnz) {
    const FeatureIndex j = static_cast<FeatureIndex>(rng->NextUint64(dim));
    if (!used[j]) {
      used[j] = 1;
      row.indices.push_back(j);
    }
  }
  std::sort(row.indices.begin(), row.indices.end());
  for (size_t i = 0; i < nnz; ++i) {
    row.values.push_back(rng->NextDouble(-1.0, 1.0));
  }
  return row;
}

// The mean loss over rows held as DataPoints, two heap vectors per row:
// the layout Dataset kept before it packed its rows into one CsrBlock,
// and the reference the eval_layout case times and holds evaluation to.
// The library keeps no DataPoint walk.
double PointsMeanLoss(const std::vector<DataPoint>& points, const Loss& loss,
                      const DenseVector& w) {
  if (points.empty()) return 0.0;
  double sum = 0.0;
  for (const DataPoint& p : points) {
    sum += loss.Value(w.Dot(p.features), p.label);
  }
  return sum / static_cast<double>(points.size());
}

// MeanLoss and GlmObjective::BatchGradient as they ran before the block
// kernel: one DenseVector::Dot per row, then the loss (and the axpy),
// row by row. Kept only here, as the references the row_margins case
// times and holds the block path to.
double PerRowMeanLoss(const CsrBlock& rows, const Loss& loss,
                      const DenseVector& w) {
  const size_t n = rows.rows();
  if (n == 0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double margin =
        w.Dot(rows.row_indices(i), rows.row_values(i), rows.row_nnz(i));
    sum += loss.Value(margin, rows.label(i));
  }
  return sum / static_cast<double>(n);
}

void PerRowBatchGradient(const CsrBlock& block,
                         const std::vector<size_t>& batch, const Loss& loss,
                         const DenseVector& w, DenseVector* gradient) {
  for (size_t idx : batch) {
    const size_t n = block.row_nnz(idx);
    const double margin =
        w.Dot(block.row_indices(idx), block.row_values(idx), n);
    const double d = loss.Derivative(margin, block.label(idx));
    if (d != 0.0) {
      gradient->AddScaled(block.row_indices(idx), block.row_values(idx), n,
                          d);
    }
  }
}

// GlmObjective::LossGradient over the rows `list` names, in list order:
// the full walk of a partition held as a row list into the dataset's
// row store, which the partition_walk case times against the walk over
// the partition's own block. Kept only here.
ComputeStats ListLossGradient(const CsrBlock& rows,
                              const std::vector<size_t>& list,
                              const Loss& loss, const DenseVector& w,
                              DenseVector* gradient, double* loss_sum) {
  ComputeStats stats;
  ForEachMargin(rows, list, w, [&](size_t i, double margin) {
    const size_t n = rows.row_nnz(i);
    const double y = rows.label(i);
    const double d = loss.Derivative(margin, y);
    *loss_sum += loss.Value(margin, y);
    stats.nnz_processed += n;
    if (d != 0.0) {
      gradient->AddScaled(rows.row_indices(i), rows.row_values(i), n, d);
      stats.nnz_processed += n;
    }
  });
  return stats;
}

// Bytes a pass may touch in a block: offsets, indices, labels and, for
// a valued block, values.
size_t BlockBytes(const CsrBlock& block) {
  return block.offsets.size() * sizeof(uint64_t) +
         block.indices.size() * sizeof(FeatureIndex) +
         block.labels.size() * sizeof(double) +
         block.values.size() * sizeof(double);
}

// SampleBatch as it was before its bitmap, with Floyd's picks in a
// node-based hash set: the reference the sample_batch case times and
// holds the draws to. Kept only here.
std::vector<size_t> HashSetSampleBatch(size_t n, size_t batch_size,
                                       Rng* rng) {
  std::vector<size_t> batch;
  if (batch_size >= n) {
    batch.resize(n);
    std::iota(batch.begin(), batch.end(), size_t{0});
    return batch;
  }
  batch.reserve(batch_size);
  if (batch_size * 4 >= n) {
    std::vector<size_t> pool(n);
    std::iota(pool.begin(), pool.end(), size_t{0});
    for (size_t i = 0; i < batch_size; ++i) {
      const size_t j = i + rng->NextUint64(n - i);
      std::swap(pool[i], pool[j]);
      batch.push_back(pool[i]);
    }
  } else {
    std::unordered_set<size_t> chosen;
    chosen.reserve(batch_size * 2);
    for (size_t i = n - batch_size; i < n; ++i) {
      const size_t j = rng->NextUint64(i + 1);
      if (chosen.insert(j).second) {
        batch.push_back(j);
      } else {
        chosen.insert(i);
        batch.push_back(i);
      }
    }
  }
  return batch;
}

struct Result {
  std::string kernel;
  std::string level;
  std::string regime;
  double ns_per_pass = 0.0;
  double items_per_sec = 0.0;
  double speedup_vs_scalar = 0.0;
};

// volatile sink so the raw-kernel loops cannot be optimized away.
volatile double g_sink = 0.0;

int Run(double min_speedup, int reps, const std::string& out_name) {
  const simd::SimdLevel detected = simd::DetectedSimdLevel();
  // The sweep's ceiling honors an MLLIBSTAR_SIMD pin, so a forced-
  // scalar run produces a true before-vectorization snapshot
  // (results/BENCH_kernels_scalar.json) rather than re-sweeping every
  // tier the CPU happens to have.
  const simd::SimdLevel top = simd::ActiveSimdLevel();
  std::printf("kernels_bench: detected SIMD level %s, sweeping up to %s, "
              "min speedup %.2fx, %d repetitions\n",
              simd::SimdLevelName(detected), simd::SimdLevelName(top),
              min_speedup, reps);

  std::vector<simd::SimdLevel> levels = {simd::SimdLevel::kScalar};
  if (top >= simd::SimdLevel::kSse2)
    levels.push_back(simd::SimdLevel::kSse2);
  if (top >= simd::SimdLevel::kAvx2)
    levels.push_back(simd::SimdLevel::kAvx2);

  std::vector<Result> results;
  Rng rng(42);
  bool perf_gate_failed = false;
  bool drift_gate_failed = false;
  double best_dot_speedup = 0.0;    // large_nnz, any vectorized tier
  double best_fused_speedup = 0.0;  // large_nnz, any vectorized tier

  // ---- Raw kernel micro-sweeps (direct table calls) -------------------
  for (const Regime& regime : kRegimes) {
    const SparseRow row = MakeRow(regime.dim, regime.nnz, &rng);
    std::vector<double> w(regime.dim);
    for (double& v : w) v = rng.NextDouble(-1.0, 1.0);
    // Size the inner loop so one timed pass is ~0.2-1 ms.
    const int inner = static_cast<int>(
        std::max<size_t>(1, (1u << 21) / std::max<size_t>(regime.nnz, 1)));

    for (const char* kernel :
         {"sparse_dot", "sparse_axpy", "dense_dot", "dense_axpy"}) {
      // One timed pass of this kernel through dispatch table `k`.
      auto pass = [&](const simd::KernelDispatch& k) {
        if (std::strcmp(kernel, "sparse_dot") == 0) {
          double acc = 0.0;
          for (int i = 0; i < inner; ++i) {
            acc += k.sparse_dot_f64(w.data(), row.indices.data(),
                                    row.values.data(), regime.nnz);
          }
          g_sink = acc;
        } else if (std::strcmp(kernel, "sparse_axpy") == 0) {
          for (int i = 0; i < inner; ++i) {
            k.sparse_axpy_f64(w.data(), row.indices.data(),
                              row.values.data(), regime.nnz, 1e-9);
          }
          g_sink = w[0];
        } else if (std::strcmp(kernel, "dense_dot") == 0) {
          double acc = 0.0;
          for (int i = 0; i < 32; ++i) {
            acc += k.dense_dot(w.data(), w.data(), regime.dim);
          }
          g_sink = acc;
        } else {  // dense_axpy
          for (int i = 0; i < 32; ++i) {
            k.dense_axpy(w.data(), w.data(), regime.dim, 1e-9);
          }
          g_sink = w[0];
        }
      };
      const simd::KernelDispatch& scalar =
          simd::KernelsFor(simd::SimdLevel::kScalar);
      // Every tier, scalar included, is timed paired with the scalar
      // tier; scalar against itself reads the ratio's noise floor.
      for (simd::SimdLevel level : levels) {
        const simd::KernelDispatch& k = simd::KernelsFor(level);
        const PairedNs t =
            PairedMinNs([&] { pass(scalar); }, [&] { pass(k); }, reps);
        const double ns = t.fn;
        Result res;
        res.kernel = kernel;
        res.level = simd::SimdLevelName(level);
        res.regime = regime.name;
        res.ns_per_pass = ns;
        const bool dense = std::strncmp(kernel, "dense", 5) == 0;
        const double items = dense
                                 ? 32.0 * static_cast<double>(regime.dim)
                                 : static_cast<double>(inner) *
                                       static_cast<double>(regime.nnz);
        res.items_per_sec = items / (ns * 1e-9);
        res.speedup_vs_scalar = t.ref / ns;
        if (level != simd::SimdLevel::kScalar &&
            std::strcmp(kernel, "sparse_dot") == 0 &&
            std::strcmp(regime.name, "large_nnz") == 0) {
          best_dot_speedup =
              std::max(best_dot_speedup, res.speedup_vs_scalar);
        }
        results.push_back(res);
      }
    }
  }

  // Perf gate: the dot is where vectorization acts (with hinge loss
  // the axpy is skipped on correctly-classified rows, so training is
  // dot-dominated); it must clear --min-speedup on large_nnz.
  if (top > simd::SimdLevel::kScalar &&
      best_dot_speedup < min_speedup) {
    std::printf("FAIL perf: best vectorized sparse_dot on large_nnz is "
                "%.2fx scalar (< %.2fx)\n",
                best_dot_speedup, min_speedup);
    perf_gate_failed = true;
  }

  // ---- Fused CSR passes through the dispatched vector layer ----------
  // The objective's fused LossGradient (the L-BFGS oracle's worker
  // task), timed end-to-end under SetSimdLevel so the numbers reflect
  // what the trainers actually run.
  const GlmObjective objective(
      LossKind::kLogistic, Regularizer(RegularizerKind::kNone, 0.0), true);
  for (const Regime& regime : kRegimes) {
    SyntheticSpec spec;
    spec.name = "kernels_bench";
    spec.num_instances = regime.rows;
    spec.num_features = regime.dim;
    spec.avg_nnz = regime.nnz;
    spec.seed = 5;
    const Dataset data = GenerateSynthetic(spec);
    const CsrBlock& block = data.rows();
    DenseVector w(regime.dim);
    for (size_t i = 0; i < regime.dim; ++i) w[i] = 0.01 * rng.NextDouble();
    DenseVector grad(regime.dim);

    // Scalar reference loss and gradient for the drift gate.
    DenseVector ref_grad(regime.dim);
    double ref_loss = 0.0;
    simd::SetSimdLevel(simd::SimdLevel::kScalar);
    objective.LossGradient(block, w, &ref_grad, &ref_loss);

    for (simd::SimdLevel level : levels) {
      // Paired with the scalar reference, so machine-speed drift
      // between configurations cancels out of the speedup ratio. Each
      // pass selects its tier first (one atomic store).
      auto fused_pass = [&](simd::SimdLevel pass_level) {
        simd::SetSimdLevel(pass_level);
        grad.SetZero();
        double loss_sum = 0.0;
        objective.LossGradient(block, w, &grad, &loss_sum);
        g_sink = loss_sum;
      };
      const PairedNs t =
          PairedMinNs([&] { fused_pass(simd::SimdLevel::kScalar); },
                      [&] { fused_pass(level); }, reps);
      const double ns = t.fn;
      Result res;
      res.kernel = "loss_gradient_fused";
      res.level = simd::SimdLevelName(level);
      res.regime = regime.name;
      res.ns_per_pass = ns;
      res.items_per_sec = static_cast<double>(block.nnz()) / (ns * 1e-9);
      res.speedup_vs_scalar = t.ref / ns;
      results.push_back(res);
      if (level != simd::SimdLevel::kScalar &&
          std::strcmp(regime.name, "large_nnz") == 0) {
        best_fused_speedup =
            std::max(best_fused_speedup, res.speedup_vs_scalar);
      }

      // Drift gate: this tier's fused pass — its loss and every
      // gradient coordinate — must be bit-identical to the scalar
      // reference. The timer's last pass may have been the scalar one,
      // so select this tier again.
      simd::SetSimdLevel(level);
      grad.SetZero();
      double loss_sum = 0.0;
      objective.LossGradient(block, w, &grad, &loss_sum);
      bool grad_equal = true;
      for (size_t i = 0; i < regime.dim; ++i) {
        if (grad[i] != ref_grad[i]) grad_equal = false;
      }
      if (loss_sum != ref_loss || !grad_equal) {
        std::printf("FAIL drift: %s not bit-identical to scalar on %s\n",
                    simd::SimdLevelName(level), regime.name);
        drift_gate_failed = true;
      }
    }
  }
  simd::SetSimdLevel(top);

  // Fused no-regression floor (see kFusedFloor above).
  const double fused_floor = std::min(kFusedFloor, min_speedup);
  if (top > simd::SimdLevel::kScalar &&
      best_fused_speedup < fused_floor) {
    std::printf("FAIL perf: best vectorized fused pass on large_nnz is "
                "%.2fx scalar (< floor %.2fx)\n",
                best_fused_speedup, fused_floor);
    perf_gate_failed = true;
  }

  // ---- Touched-coordinate flush vs dense sweep ------------------------
  // The two branches of TouchedBuffer's flush (core/vector.h), timed
  // directly at listed/dim from 1/64 to 1 on the paper's model sizes
  // (kddb, kdd12, WX). A list is the concatenated feature indices of
  // synthetic rows from the dataset's preset, so it carries the real
  // Zipf skew and duplicates. This case picks
  // TouchedBuffer::kSparseFactor: the flush sweeps only the listed
  // coordinates when listed × kSparseFactor ≤ dim.
  JsonValue flush_runs = JsonValue::Array();
  std::printf("\n%-8s %8s %10s %12s %12s %9s\n", "dataset", "dim",
              "listed/dim", "touched ns", "dense ns", "dense/tch");
  for (SyntheticSpec spec : {KddbSpec(), Kdd12Spec(), WxSpec()}) {
    const size_t dim = spec.num_features;
    spec.num_instances = 2 * dim / spec.avg_nnz + 1;
    const CsrBlock rows = GenerateSynthetic(spec).rows();
    DenseVector dst(dim);
    DenseVector buf(dim);
    for (size_t i = 0; i < dim; ++i) dst[i] = rng.NextDouble(-1.0, 1.0);
    const double alpha = -1e-3;
    constexpr int kFlushInner = 16;
    for (size_t denom : {64, 16, 8, 4, 2, 1}) {
      const size_t listed = std::min(rows.indices.size(), dim / denom);
      const FeatureIndex* list = rows.indices.data();
      const double touched_ns = MinNs(
          [&] {
            for (int i = 0; i < kFlushInner; ++i) {
              double* d = dst.data();
              double* b = buf.data();
              for (size_t n = 0; n < listed; ++n) {
                d[list[n]] += alpha * b[list[n]];
                b[list[n]] = 0.0;
              }
            }
            g_sink = dst[list[0]];
          },
          reps);
      const double dense_ns = MinNs(
          [&] {
            for (int i = 0; i < kFlushInner; ++i) {
              dst.AddScaled(buf, alpha);
              buf.SetZero();
            }
            g_sink = dst[0];
          },
          reps);
      const double ratio = dense_ns / touched_ns;
      std::printf("%-8s %8zu %10s %12.0f %12.0f %8.2fx\n", spec.name.c_str(),
                  dim, ("1/" + std::to_string(denom)).c_str(), touched_ns,
                  dense_ns, ratio);
      JsonValue e = JsonValue::Object();
      e.Set("dataset", JsonValue::Str(spec.name));
      e.Set("dim", JsonValue::Number(static_cast<int64_t>(dim)));
      e.Set("listed", JsonValue::Number(static_cast<int64_t>(listed)));
      e.Set("listed_over_dim",
            JsonValue::Number(1.0 / static_cast<double>(denom)));
      e.Set("flushes_per_pass", JsonValue::Number(int64_t{kFlushInner}));
      e.Set("touched_ns_per_pass", JsonValue::Number(touched_ns));
      e.Set("dense_ns_per_pass", JsonValue::Number(dense_ns));
      e.Set("dense_over_touched", JsonValue::Number(ratio));
      e.Set("sparse_branch_taken",
            JsonValue::Bool(listed * TouchedBuffer::kSparseFactor <= dim));
      flush_runs.Append(e);
    }
  }

  // ---- Objective evaluation by layout ---------------------------------
  // One full-objective data term (hinge, as the figure workloads train)
  // over the same one-hot dataset in three layouts: the rows as
  // DataPoints materialized through Dataset::point (PointsMeanLoss), the
  // dataset's packed rows with stored 1.0 values (the layout before
  // value-free blocks), and the value-free packed rows Trainer::Eval
  // walks now (MeanLoss, DESIGN §17). Each packed walk is paired with the
  // DataPoint walk. Datasets: kdd12 (Fig. 4) and WX (Fig. 6). All three
  // results must be bit-equal, and the value-free walk must not lose to
  // the DataPoint walk.
  const Loss hinge(LossKind::kHinge);
  const Dataset kdd12 = GenerateSynthetic(Kdd12Spec());
  const Dataset kddb = GenerateSynthetic(KddbSpec());
  const Dataset wx = GenerateSynthetic(WxSpec());
  auto dataset_named = [&](const char* name) -> const Dataset& {
    return std::strcmp(name, "kdd12") == 0  ? kdd12
           : std::strcmp(name, "kddb") == 0 ? kddb
                                            : wx;
  };
  bool eval_gate_failed = false;
  JsonValue eval_runs = JsonValue::Array();
  std::printf("\n%-8s %12s %12s %12s %10s\n", "dataset", "points ns",
              "valued ns", "value-free", "pts/vfree");
  {
    for (const Dataset* dataset : {&kdd12, &wx}) {
      const Dataset& data = *dataset;
      std::vector<DataPoint> points;
      points.reserve(data.size());
      for (size_t i = 0; i < data.size(); ++i) points.push_back(data.point(i));
      const CsrBlock& value_free = data.rows();
      // The same rows as the packers built them before value-free
      // blocks: stored 1.0s.
      CsrBlock valued = value_free;
      valued.value_free = false;
      valued.ones.clear();
      valued.values.assign(valued.nnz(), 1.0);
      DenseVector w(data.num_features());
      for (size_t i = 0; i < w.dim(); ++i) w[i] = rng.NextDouble(-1.0, 1.0);
      double points_loss = 0.0, valued_loss = 0.0, value_free_loss = 0.0;
      const auto points_walk = [&] {
        points_loss = PointsMeanLoss(points, hinge, w);
      };
      const PairedNs valued_walks = PairedMinNs(
          points_walk, [&] { valued_loss = MeanLoss(valued, hinge, w); },
          reps);
      // The gated pair: the DataPoint walk against the value-free one.
      const PairedNs walks = PairedMinNs(
          points_walk,
          [&] { value_free_loss = MeanLoss(value_free, hinge, w); }, reps);
      const double points_ns = walks.ref;
      const double valued_ns = valued_walks.fn;
      const double value_free_ns = walks.fn;
      const bool bit_equal =
          points_loss == valued_loss && points_loss == value_free_loss;
      const double ratio = points_ns / value_free_ns;
      std::printf("%-8s %12.0f %12.0f %12.0f %9.2fx\n", data.name().c_str(),
                  points_ns, valued_ns, value_free_ns, ratio);
      if (!bit_equal) {
        std::printf("FAIL eval: %s layouts disagree (%.17g %.17g %.17g)\n",
                    data.name().c_str(), points_loss, valued_loss,
                    value_free_loss);
        eval_gate_failed = true;
      }
      if (value_free_ns > points_ns) {
        std::printf("FAIL eval: %s value-free walk slower than DataPoint "
                    "walk\n",
                    data.name().c_str());
        eval_gate_failed = true;
      }
      JsonValue e = JsonValue::Object();
      e.Set("dataset", JsonValue::Str(data.name()));
      e.Set("rows", JsonValue::Number(static_cast<int64_t>(data.size())));
      e.Set("nnz", JsonValue::Number(static_cast<int64_t>(data.TotalNnz())));
      e.Set("points_ns", JsonValue::Number(points_ns));
      e.Set("valued_ns", JsonValue::Number(valued_ns));
      e.Set("value_free_ns", JsonValue::Number(value_free_ns));
      e.Set("points_over_valued",
            JsonValue::Number(valued_walks.ref / valued_ns));
      e.Set("points_over_value_free", JsonValue::Number(ratio));
      e.Set("bit_equal", JsonValue::Bool(bit_equal));
      eval_runs.Append(e);
    }
  }

  // ---- Block margins --------------------------------------------------
  // The block kernel (simd row_margins, through ForEachMargin) against
  // the per-row loops it replaced (PerRowMeanLoss, PerRowBatchGradient),
  // hinge loss as the figure workloads train. Evaluation: one MeanLoss
  // over kdd12 (Fig. 4) and WX (Fig. 6). Batches: at each shape a pass
  // draws `draws` batches in every one of the dataset's k partitions,
  // so the rows it reads outgrow L2 and come from L3, as in a round.
  // Drift gate: every tier's block margins over the batches equal its
  // per-row sparse dots, and the loss sums and gradients equal the
  // per-row loop's, bit for bit. Perf gate: the first batch shape.
  JsonValue margin_runs = JsonValue::Array();
  double margins_speedup_gated = 0.0;
  // A pass takes about a millisecond; three times the repetitions
  // steady the gated ratio against other tenants at little cost.
  const int margin_reps = 3 * reps;
  std::printf("\n%-6s %-8s %5s %6s %6s %6s %12s %12s %9s\n", "case",
              "dataset", "parts", "rows", "batch", "draws", "per-row ns",
              "block ns", "speedup");
  {
    const GlmObjective objective(
        LossKind::kHinge, Regularizer(RegularizerKind::kNone, 0.0), false);
    // A model like a trained one: small weights, so most rows sit
    // inside the hinge and take an axpy.
    auto model = [&](const Dataset& data) {
      DenseVector w(data.num_features());
      for (size_t i = 0; i < w.dim(); ++i) {
        w[i] = rng.NextDouble(-0.01, 0.01);
      }
      return w;
    };
    auto record = [&](const char* kind, const Dataset& data, size_t k,
                      size_t rows, size_t batch_size, size_t draws,
                      const PairedNs& t, bool bit_equal) {
      const double speedup = t.ref / t.fn;
      std::printf("%-6s %-8s %5zu %6zu %6zu %6zu %12.0f %12.0f %8.2fx\n",
                  kind, data.name().c_str(), k, rows, batch_size, draws,
                  t.ref, t.fn, speedup);
      if (!bit_equal) {
        std::printf("FAIL drift: block margins on %s (%s, batch %zu) "
                    "differ from the per-row loop\n",
                    data.name().c_str(), kind, batch_size);
        drift_gate_failed = true;
      }
      JsonValue e = JsonValue::Object();
      e.Set("case", JsonValue::Str(kind));
      e.Set("dataset", JsonValue::Str(data.name()));
      e.Set("partitions", JsonValue::Number(static_cast<int64_t>(k)));
      e.Set("rows", JsonValue::Number(static_cast<int64_t>(rows)));
      e.Set("batch_size",
            JsonValue::Number(static_cast<int64_t>(batch_size)));
      e.Set("draws_per_partition",
            JsonValue::Number(static_cast<int64_t>(draws)));
      e.Set("per_row_ns_per_pass", JsonValue::Number(t.ref));
      e.Set("block_ns_per_pass", JsonValue::Number(t.fn));
      e.Set("speedup_vs_per_row", JsonValue::Number(speedup));
      e.Set("bit_equal", JsonValue::Bool(bit_equal));
      margin_runs.Append(e);
      return speedup;
    };

    for (const Dataset* dataset : {&kdd12, &wx}) {
      const Dataset& data = *dataset;
      const DenseVector w = model(data);
      double per_row_loss = 0.0;
      double block_loss = 0.0;
      const PairedNs t = PairedMinNs(
          [&] { per_row_loss = PerRowMeanLoss(data.rows(), hinge, w); },
          [&] { block_loss = MeanLoss(data.rows(), hinge, w); },
          margin_reps);
      record("eval", data, 1, data.size(), data.size(), 1, t,
             per_row_loss == block_loss);
    }

    for (const BatchShape& shape : kBatchShapes) {
      const Dataset& data = dataset_named(shape.dataset);
      const std::vector<CsrBlock> parts =
          PartitionCsr(data, shape.partitions);
      // Enough draws that a pass reads about 16,000 rows.
      const size_t draws = std::max<size_t>(
          1, 16000 / (shape.partitions * shape.batch_size));
      Rng batch_rng(11);
      std::vector<std::vector<size_t>> batches;  // partition-major
      for (const CsrBlock& part : parts) {
        for (size_t d = 0; d < draws; ++d) {
          batches.push_back(
              SampleBatch(part.rows(), shape.batch_size, &batch_rng));
        }
      }
      const DenseVector w = model(data);
      DenseVector per_row_grad(w.dim());
      DenseVector block_grad(w.dim());
      auto per_row_pass = [&] {
        for (size_t b = 0; b < batches.size(); ++b) {
          PerRowBatchGradient(parts[b / draws], batches[b], hinge, w,
                              &per_row_grad);
        }
      };
      auto block_pass = [&] {
        for (size_t b = 0; b < batches.size(); ++b) {
          objective.BatchGradient(parts[b / draws], batches[b], w,
                                  &block_grad);
        }
      };
      const PairedNs t =
          PairedMinNs(per_row_pass, block_pass, margin_reps);

      // Drift: one pass of each from zero, and every tier's margins.
      per_row_grad.SetZero();
      block_grad.SetZero();
      per_row_pass();
      block_pass();
      bool bit_equal = true;
      for (size_t i = 0; i < w.dim(); ++i) {
        if (per_row_grad[i] != block_grad[i]) bit_equal = false;
      }
      for (simd::SimdLevel level : levels) {
        const simd::KernelDispatch& k = simd::KernelsFor(level);
        for (size_t b = 0; b < batches.size(); ++b) {
          const CsrBlock& part = parts[b / draws];
          const std::vector<size_t>& batch = batches[b];
          std::vector<double> margins(batch.size());
          k.row_margins(w.data(), part.spans(), batch.data(), batch.size(),
                        0, batch.size(), margins.data());
          for (size_t j = 0; j < batch.size(); ++j) {
            const size_t r = batch[j];
            if (margins[j] != k.sparse_dot_f64(w.data(),
                                                part.row_indices(r),
                                                part.row_values(r),
                                                part.row_nnz(r))) {
              bit_equal = false;
            }
          }
        }
      }
      const double speedup =
          record("batch", data, shape.partitions, parts[0].rows(),
                 shape.batch_size, draws, t, bit_equal);
      if (&shape == &kBatchShapes[0]) margins_speedup_gated = speedup;
    }
  }
  const double margins_floor = min_speedup < kDefaultMinSpeedup
                                   ? std::min(kRowMarginsFloor, min_speedup)
                                   : kRowMarginsFloor;
  if (margins_speedup_gated < margins_floor) {
    std::printf("FAIL perf: block-margin batch gradients (%s, batch %zu) "
                "are %.2fx the per-row loop (< floor %.2fx)\n",
                kBatchShapes[0].dataset, kBatchShapes[0].batch_size,
                margins_speedup_gated, margins_floor);
    perf_gate_failed = true;
  }

  // ---- Partition walks: block against row list ----------------------
  // Worker 0's three walks at each figure workload's shape, over its
  // PartitionCsr block and over the same rows listed into the dataset's
  // row store (r, r + k, ...): one shuffled SgdEpoch from a fixed model
  // and Rng (lazy L2 at the workload's weight, and without L2), 30
  // sampled BatchGradient batches, and one full LossGradient walk. The
  // listed walk reads the same rows in the same order, so every model,
  // gradient and loss must be bit-equal (drift gate). Report only: no
  // perf gate reads these.
  JsonValue walk_runs = JsonValue::Array();
  std::printf("\n%-14s %-6s %5s %6s %5s %11s %11s %10s %10s\n", "case",
              "data", "parts", "rows", "l2", "block KB", "store KB",
              "block ns", "list/blk");
  for (const WalkShape& shape : kWalkShapes) {
    const Dataset& data = dataset_named(shape.dataset);
    const size_t k = shape.partitions;
    const CsrBlock block = std::move(PartitionCsr(data, k)[0]);
    const CsrBlock& store = data.rows();
    std::vector<size_t> list;
    for (size_t r = 0; r < store.rows(); r += k) list.push_back(r);
    DenseVector start(data.num_features());
    for (size_t i = 0; i < start.dim(); ++i) {
      start[i] = rng.NextDouble(-0.01, 0.01);
    }
    Rng batch_rng(13);
    std::vector<std::vector<size_t>> batches;  // local rows
    std::vector<std::vector<size_t>> listed;   // the same rows in the store
    for (size_t b = 0; b < kWalkBatches; ++b) {
      batches.push_back(SampleBatch(block.rows(), shape.batch_size,
                                    &batch_rng));
      listed.emplace_back();
      for (size_t idx : batches.back()) listed.back().push_back(list[idx]);
    }

    auto record = [&](const char* kind, double lambda, const PairedNs& t,
                      bool bit_equal) {
      const double ratio = t.fn / t.ref;
      std::printf("%-14s %-6s %5zu %6zu %5.2f %11.1f %11.1f %10.0f %9.2fx\n",
                  kind, data.name().c_str(), k, block.rows(), lambda,
                  BlockBytes(block) / 1024.0, BlockBytes(store) / 1024.0,
                  t.ref, ratio);
      if (!bit_equal) {
        std::printf("FAIL drift: %s over the row list on %s differs from "
                    "the partition block\n",
                    kind, data.name().c_str());
        drift_gate_failed = true;
      }
      JsonValue e = JsonValue::Object();
      e.Set("case", JsonValue::Str(kind));
      e.Set("dataset", JsonValue::Str(data.name()));
      e.Set("partitions", JsonValue::Number(static_cast<int64_t>(k)));
      e.Set("rows", JsonValue::Number(static_cast<int64_t>(block.rows())));
      e.Set("l2", JsonValue::Number(lambda));
      e.Set("block_bytes",
            JsonValue::Number(static_cast<int64_t>(BlockBytes(block))));
      e.Set("row_store_bytes",
            JsonValue::Number(static_cast<int64_t>(BlockBytes(store))));
      e.Set("block_ns_per_pass", JsonValue::Number(t.ref));
      e.Set("list_ns_per_pass", JsonValue::Number(t.fn));
      e.Set("list_over_block", JsonValue::Number(ratio));
      e.Set("bit_equal", JsonValue::Bool(bit_equal));
      walk_runs.Append(e);
    };

    // The shuffled epoch, once at the workload's L2 weight (lazy, as the
    // SendModel trainers run it) and once without L2.
    std::vector<double> lambdas = {shape.lambda};
    if (shape.lambda != 0.0) lambdas.push_back(0.0);
    for (double lambda : lambdas) {
      const GlmObjective sgd(
          LossKind::kHinge,
          Regularizer(lambda == 0.0 ? RegularizerKind::kNone
                                    : RegularizerKind::kL2,
                      lambda),
          true);
      DenseVector block_w;
      DenseVector list_w;
      auto block_pass = [&] {
        Rng epoch_rng(17);
        block_w = start;
        sgd.SgdEpoch(block, 0.05, &epoch_rng, &block_w);
      };
      auto list_pass = [&] {
        Rng epoch_rng(17);
        list_w = start;
        sgd.SgdEpoch(store, list, 0.05, &epoch_rng, &list_w);
      };
      const PairedNs t = PairedMinNs(block_pass, list_pass, margin_reps);
      record(lambda == 0.0 ? "sgd_epoch" : "sgd_epoch_l2", lambda, t,
             block_w.values() == list_w.values());
    }

    const GlmObjective objective(
        LossKind::kHinge, Regularizer(RegularizerKind::kNone, 0.0), false);
    {
      DenseVector block_grad(start.dim());
      DenseVector list_grad(start.dim());
      auto block_pass = [&] {
        block_grad.SetZero();
        for (const std::vector<size_t>& batch : batches) {
          objective.BatchGradient(block, batch, start, &block_grad);
        }
      };
      auto list_pass = [&] {
        list_grad.SetZero();
        for (const std::vector<size_t>& batch : listed) {
          objective.BatchGradient(store, batch, start, &list_grad);
        }
      };
      const PairedNs t = PairedMinNs(block_pass, list_pass, margin_reps);
      record("batch_gradient", 0.0, t,
             block_grad.values() == list_grad.values());
    }
    {
      DenseVector block_grad(start.dim());
      DenseVector list_grad(start.dim());
      double block_loss = 0.0;
      double list_loss = 0.0;
      auto block_pass = [&] {
        block_grad.SetZero();
        block_loss = 0.0;
        objective.LossGradient(block, start, &block_grad, &block_loss);
      };
      auto list_pass = [&] {
        list_grad.SetZero();
        list_loss = 0.0;
        ListLossGradient(store, list, hinge, start, &list_grad, &list_loss);
      };
      const PairedNs t = PairedMinNs(block_pass, list_pass, margin_reps);
      record("full_walk", 0.0, t,
             block_loss == list_loss &&
                 block_grad.values() == list_grad.values());
    }
  }

  // ---- Mini-batch sampling -------------------------------------------
  // SampleBatch (core/gd.h) against HashSetSampleBatch at each shape.
  // A pass draws `batches` consecutive batches from a fresh Rng, so
  // both sides draw the same rows. Drift gate: every batch and the
  // Rng's next draw agree. Perf gate: the first shape's speedup.
  JsonValue sample_runs = JsonValue::Array();
  double sample_speedup_gated = 0.0;
  std::printf("\n%8s %6s %8s %14s %12s %9s\n", "rows", "batch", "batches",
              "hash-set ns", "bitmap ns", "speedup");
  for (const SampleShape& shape : kSampleShapes) {
    const size_t batches = std::max<size_t>(
        4, 40000 / std::max<size_t>(shape.batch_size, 1));
    auto sample_pass = [&](auto sample) {
      Rng sample_rng(7);
      size_t drawn = 0;
      for (size_t b = 0; b < batches; ++b) {
        drawn += sample(shape.n, shape.batch_size, &sample_rng).size();
      }
      g_sink = static_cast<double>(drawn);
    };
    const PairedNs t =
        PairedMinNs([&] { sample_pass(HashSetSampleBatch); },
                    [&] { sample_pass(SampleBatch); }, reps);
    Rng ref_rng(7);
    Rng bitmap_rng(7);
    bool identical = true;
    for (size_t b = 0; b < batches; ++b) {
      if (HashSetSampleBatch(shape.n, shape.batch_size, &ref_rng) !=
          SampleBatch(shape.n, shape.batch_size, &bitmap_rng)) {
        identical = false;
      }
    }
    if (ref_rng.NextUint64() != bitmap_rng.NextUint64()) identical = false;
    const double speedup = t.ref / t.fn;
    if (&shape == &kSampleShapes[0]) sample_speedup_gated = speedup;
    std::printf("%8zu %6zu %8zu %14.0f %12.0f %8.2fx\n", shape.n,
                shape.batch_size, batches, t.ref, t.fn, speedup);
    if (!identical) {
      std::printf("FAIL drift: SampleBatch(%zu, %zu) differs from the "
                  "hash-set reference\n",
                  shape.n, shape.batch_size);
      drift_gate_failed = true;
    }
    JsonValue e = JsonValue::Object();
    e.Set("rows", JsonValue::Number(static_cast<int64_t>(shape.n)));
    e.Set("batch_size",
          JsonValue::Number(static_cast<int64_t>(shape.batch_size)));
    e.Set("batches_per_pass",
          JsonValue::Number(static_cast<int64_t>(batches)));
    e.Set("hash_set_ns_per_pass", JsonValue::Number(t.ref));
    e.Set("bitmap_ns_per_pass", JsonValue::Number(t.fn));
    e.Set("speedup_vs_hash_set", JsonValue::Number(speedup));
    e.Set("identical", JsonValue::Bool(identical));
    sample_runs.Append(e);
  }
  const double sample_floor = min_speedup < kDefaultMinSpeedup
                                  ? std::min(kSampleFloor, min_speedup)
                                  : kSampleFloor;
  if (sample_speedup_gated < sample_floor) {
    std::printf("FAIL perf: SampleBatch(%zu, %zu) is %.2fx the hash-set "
                "reference (< floor %.2fx)\n",
                kSampleShapes[0].n, kSampleShapes[0].batch_size,
                sample_speedup_gated, sample_floor);
    perf_gate_failed = true;
  }

  // ---- Report ---------------------------------------------------------
  std::printf("\n%-22s %-7s %-10s %12s %10s\n", "kernel", "level",
              "regime", "ns/pass", "vs scalar");
  for (const Result& r : results) {
    std::printf("%-22s %-7s %-10s %12.0f %9.2fx\n", r.kernel.c_str(),
                r.level.c_str(), r.regime.c_str(), r.ns_per_pass,
                r.speedup_vs_scalar);
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", JsonValue::Str("kernels"));
  doc.Set("detected_level",
          JsonValue::Str(simd::SimdLevelName(detected)));
  doc.Set("active_level",
          JsonValue::Str(simd::SimdLevelName(simd::ActiveSimdLevel())));
  doc.Set("repetitions", JsonValue::Number(static_cast<int64_t>(reps)));
  doc.Set("min_speedup_gate", JsonValue::Number(min_speedup));
  doc.Set("fused_floor_gate", JsonValue::Number(fused_floor));
  doc.Set("best_dot_speedup_large_nnz", JsonValue::Number(best_dot_speedup));
  doc.Set("best_fused_speedup_large_nnz",
          JsonValue::Number(best_fused_speedup));
  doc.Set("perf_gate_ok", JsonValue::Bool(!perf_gate_failed));
  doc.Set("drift_gate_ok", JsonValue::Bool(!drift_gate_failed));
  JsonValue runs = JsonValue::Array();
  for (const Result& r : results) {
    JsonValue e = JsonValue::Object();
    e.Set("kernel", JsonValue::Str(r.kernel));
    e.Set("level", JsonValue::Str(r.level));
    e.Set("regime", JsonValue::Str(r.regime));
    e.Set("ns_per_pass", JsonValue::Number(r.ns_per_pass));
    e.Set("items_per_sec", JsonValue::Number(r.items_per_sec));
    e.Set("speedup_vs_scalar", JsonValue::Number(r.speedup_vs_scalar));
    runs.Append(e);
  }
  doc.Set("runs", runs);
  doc.Set("touched_sparse_factor",
          JsonValue::Number(
              static_cast<int64_t>(TouchedBuffer::kSparseFactor)));
  doc.Set("flush_density", flush_runs);
  doc.Set("eval_gate_ok", JsonValue::Bool(!eval_gate_failed));
  doc.Set("eval_layout", eval_runs);
  doc.Set("sample_floor_gate", JsonValue::Number(sample_floor));
  doc.Set("sample_speedup_gated", JsonValue::Number(sample_speedup_gated));
  doc.Set("sample_batch", sample_runs);
  doc.Set("row_margins_floor_gate", JsonValue::Number(margins_floor));
  doc.Set("row_margins_speedup_gated",
          JsonValue::Number(margins_speedup_gated));
  doc.Set("row_margins", margin_runs);
  doc.Set("partition_walk", walk_runs);
  bench::WriteBenchJson(out_name, doc);

  if (perf_gate_failed || drift_gate_failed || eval_gate_failed) {
    std::printf("\nkernels_bench: GATES FAILED\n");
    return 2;
  }
  std::printf("\nkernels_bench: all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace mllibstar

int main(int argc, char** argv) {
  double min_speedup = mllibstar::kDefaultMinSpeedup;
  int reps = 7;
  std::string out_name = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--min-speedup=", 0) == 0) {
      min_speedup = std::stod(arg.substr(14));
    } else if (arg.rfind("--repetitions=", 0) == 0) {
      reps = std::stoi(arg.substr(14));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_name = arg.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--min-speedup=X] [--repetitions=N] "
                   "[--out=FILE]\n",
                   argv[0]);
      return 1;
    }
  }
  return mllibstar::Run(min_speedup, reps, out_name);
}
