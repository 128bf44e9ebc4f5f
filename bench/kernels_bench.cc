// Kernel-perf trajectory harness for the SIMD-dispatched CSR kernels
// (DESIGN §13): sweeps kernel × dispatch level × precision × nnz
// regime with a min-of-repetitions timer and writes the
// machine-readable results/BENCH_kernels.json.
//
// Unlike the figure harnesses this one also *gates*: it exits 2 when
// (a) the best vectorized sparse dot — the margin kernel, where
// vectorization actually acts — fails to reach --min-speedup over
// scalar on the large-nnz regime, (b) the fused loss-gradient pass
// fails the no-regression floor (the fused number is structurally
// capped well below the dot's speedup: roughly half its time is the
// store-bound sparse axpy plus the per-row loss derivative, neither
// of which vectorization can accelerate much), or (c) the f32
// storage path drifts past the documented accuracy budget. CI runs
// it as a smoke check so kernel regressions fail the build, and the
// committed JSON pairs with results/BENCH_kernels_scalar.json (a
// forced-scalar run) to record the before/after speedup trajectory.
//
// Flags: --min-speedup=<x> (default 1.5), --repetitions=<n> (default
// 7), --out=<filename> (default BENCH_kernels.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/csr_block.h"
#include "core/gd.h"
#include "core/loss.h"
#include "core/simd/dispatch.h"
#include "core/vector.h"
#include "data/synthetic.h"

namespace mllibstar {
namespace {

// Documented f32 accuracy budget (DESIGN §13): relative drift of the
// fused loss and of the gradient L2 norm between the f32 storage path
// and the f64 reference. f32 value rounding is 2^-24 per element;
// with f64 accumulation the fused pass stays orders of magnitude
// under this.
constexpr double kF32RelBudget = 1e-4;

// No-regression floor for the fused loss-gradient pass: the best
// vectorized configuration must beat scalar by at least this much on
// the large-nnz regime. Kept deliberately modest — the fused pass
// spends ~half its time in the sparse axpy (store-bound, caps near
// 1.15×) and the per-row loss derivative, so even a 1.9× dot only
// moves the fused number to ~1.3-1.4× (Amdahl). Clamped down to
// --min-speedup so a CI run with a relaxed gate (unknown machine)
// relaxes this floor too.
constexpr double kFusedFloor = 1.1;

struct Regime {
  const char* name;
  size_t dim;      // model dimension
  size_t nnz;      // nonzeros per row
  size_t rows;     // rows for the fused CSR pass
};

// small = cache-missing gathers dominate; large = cache-resident
// model where vector arithmetic dominates (the regime the 1.5× gate
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

// One sparse row: sorted unique indices into [0, dim).
struct SparseRow {
  std::vector<FeatureIndex> indices;
  std::vector<double> values;
  std::vector<float> values_f32;
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
    const double v = rng->NextDouble(-1.0, 1.0);
    row.values.push_back(v);
    row.values_f32.push_back(static_cast<float>(v));
  }
  return row;
}

struct Result {
  std::string kernel;
  std::string level;
  std::string precision;
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
  if (top >= simd::SimdLevel::kAvx512)
    levels.push_back(simd::SimdLevel::kAvx512);

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

    struct RawCase {
      const char* kernel;
      const char* precision;
    };
    for (const RawCase& rc :
         {RawCase{"sparse_dot", "f64"}, RawCase{"sparse_dot", "f32"},
          RawCase{"sparse_axpy", "f64"}, RawCase{"sparse_axpy", "f32"},
          RawCase{"dense_dot", "f64"}, RawCase{"dense_axpy", "f64"}}) {
      double scalar_ns = 0.0;
      for (simd::SimdLevel level : levels) {
        const simd::KernelDispatch& k = simd::KernelsFor(level);
        double ns = 0.0;
        if (std::strcmp(rc.kernel, "sparse_dot") == 0) {
          const bool f32 = std::strcmp(rc.precision, "f32") == 0;
          ns = MinNs(
              [&] {
                double acc = 0.0;
                for (int i = 0; i < inner; ++i) {
                  acc += f32 ? k.sparse_dot_f32(w.data(),
                                                row.indices.data(),
                                                row.values_f32.data(),
                                                regime.nnz)
                             : k.sparse_dot_f64(w.data(),
                                                row.indices.data(),
                                                row.values.data(),
                                                regime.nnz);
                }
                g_sink = acc;
              },
              reps);
        } else if (std::strcmp(rc.kernel, "sparse_axpy") == 0) {
          const bool f32 = std::strcmp(rc.precision, "f32") == 0;
          ns = MinNs(
              [&] {
                for (int i = 0; i < inner; ++i) {
                  if (f32) {
                    k.sparse_axpy_f32(w.data(), row.indices.data(),
                                      row.values_f32.data(), regime.nnz,
                                      1e-9);
                  } else {
                    k.sparse_axpy_f64(w.data(), row.indices.data(),
                                      row.values.data(), regime.nnz, 1e-9);
                  }
                }
                g_sink = w[0];
              },
              reps);
        } else if (std::strcmp(rc.kernel, "dense_dot") == 0) {
          ns = MinNs(
              [&] {
                double acc = 0.0;
                for (int i = 0; i < 32; ++i) {
                  acc += k.dense_dot(w.data(), w.data(), regime.dim);
                }
                g_sink = acc;
              },
              reps);
        } else {  // dense_axpy
          ns = MinNs(
              [&] {
                for (int i = 0; i < 32; ++i) {
                  k.dense_axpy(w.data(), w.data(), regime.dim, 1e-9);
                }
                g_sink = w[0];
              },
              reps);
        }
        if (level == simd::SimdLevel::kScalar) scalar_ns = ns;
        Result res;
        res.kernel = rc.kernel;
        res.level = simd::SimdLevelName(level);
        res.precision = rc.precision;
        res.regime = regime.name;
        res.ns_per_pass = ns;
        const bool dense = std::strncmp(rc.kernel, "dense", 5) == 0;
        const double items = dense
                                 ? 32.0 * static_cast<double>(regime.dim)
                                 : static_cast<double>(inner) *
                                       static_cast<double>(regime.nnz);
        res.items_per_sec = items / (ns * 1e-9);
        res.speedup_vs_scalar = scalar_ns / ns;
        if (level != simd::SimdLevel::kScalar &&
            std::strcmp(rc.kernel, "sparse_dot") == 0 &&
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
  // AccumulateLossGradient (the L-BFGS oracle's worker task) and its
  // softmax twin, timed end-to-end under SetSimdLevel so the numbers
  // reflect what the trainers actually run.
  auto loss = MakeLoss(LossKind::kLogistic);
  for (const Regime& regime : kRegimes) {
    SyntheticSpec spec;
    spec.name = "kernels_bench";
    spec.num_instances = regime.rows;
    spec.num_features = regime.dim;
    spec.avg_nnz = regime.nnz;
    spec.seed = 5;
    const Dataset data = GenerateSynthetic(spec);
    const CsrBlock block = CsrBlock::FromPoints(data.points());
    DenseVector w(regime.dim);
    for (size_t i = 0; i < regime.dim; ++i) w[i] = 0.01 * rng.NextDouble();
    DenseVector grad(regime.dim);

    // f64 scalar reference outputs for the drift gate.
    double ref_loss = 0.0;
    DenseVector ref_grad(regime.dim);
    simd::SetSimdLevel(simd::SimdLevel::kScalar);
    AccumulateLossGradient(block, *loss, w, &ref_grad, &ref_loss);

    for (simd::SimdLevel level : levels) {
      for (const char* precision : {"f64", "f32"}) {
        const bool f32 = std::strcmp(precision, "f32") == 0;
        auto config_pass = [&] {
          grad.SetZero();
          double loss_sum = 0.0;
          if (f32) {
            AccumulateLossGradientF32(block, *loss, w, &grad, &loss_sum);
          } else {
            AccumulateLossGradient(block, *loss, w, &grad, &loss_sum);
          }
          g_sink = loss_sum;
        };
        auto scalar_pass = [&] {
          grad.SetZero();
          double loss_sum = 0.0;
          AccumulateLossGradient(block, *loss, w, &grad, &loss_sum);
          g_sink = loss_sum;
        };
        // Paired interleaved sampling: alternate the scalar-f64
        // reference with this configuration inside one reps loop, so
        // machine-speed drift between configs cancels out of the
        // speedup ratio (a one-shot scalar baseline timed minutes
        // earlier made the ratios swing ±30% on a busy box).
        double ns = 0.0;
        double scalar_ns = 0.0;
        simd::SetSimdLevel(simd::SimdLevel::kScalar);
        scalar_pass();  // warm-up
        simd::SetSimdLevel(level);
        config_pass();  // warm-up
        for (int r = 0; r < reps; ++r) {
          simd::SetSimdLevel(simd::SimdLevel::kScalar);
          double t0 = NowNs();
          scalar_pass();
          const double s = NowNs() - t0;
          if (r == 0 || s < scalar_ns) scalar_ns = s;
          simd::SetSimdLevel(level);
          t0 = NowNs();
          config_pass();
          const double c = NowNs() - t0;
          if (r == 0 || c < ns) ns = c;
        }
        Result res;
        res.kernel = "loss_gradient_fused";
        res.level = simd::SimdLevelName(level);
        res.precision = precision;
        res.regime = regime.name;
        res.ns_per_pass = ns;
        res.items_per_sec =
            static_cast<double>(block.nnz()) / (ns * 1e-9);
        res.speedup_vs_scalar = scalar_ns / ns;
        results.push_back(res);
        if (level != simd::SimdLevel::kScalar &&
            std::strcmp(regime.name, "large_nnz") == 0) {
          best_fused_speedup =
              std::max(best_fused_speedup, res.speedup_vs_scalar);
        }

        // Drift gate: compare this configuration's outputs against
        // the f64 scalar reference.
        grad.SetZero();
        double loss_sum = 0.0;
        if (f32) {
          AccumulateLossGradientF32(block, *loss, w, &grad, &loss_sum);
        } else {
          AccumulateLossGradient(block, *loss, w, &grad, &loss_sum);
        }
        const double loss_rel =
            std::fabs(loss_sum - ref_loss) / std::max(1.0, std::fabs(ref_loss));
        const double grad_rel =
            std::fabs(grad.Norm2() - ref_grad.Norm2()) /
            std::max(1.0, ref_grad.Norm2());
        if (!f32 && (loss_sum != ref_loss)) {
          std::printf("FAIL drift: f64 %s not bit-identical to scalar on "
                      "%s\n",
                      simd::SimdLevelName(level), regime.name);
          drift_gate_failed = true;
        }
        if (f32 && (loss_rel > kF32RelBudget || grad_rel > kF32RelBudget)) {
          std::printf("FAIL drift: f32 %s on %s loss_rel=%.3g "
                      "grad_rel=%.3g > budget %.1g\n",
                      simd::SimdLevelName(level), regime.name, loss_rel,
                      grad_rel, kF32RelBudget);
          drift_gate_failed = true;
        }
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
    const CsrBlock rows =
        CsrBlock::FromPoints(GenerateSynthetic(spec).points());
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

  // ---- Report ---------------------------------------------------------
  std::printf("\n%-22s %-7s %-5s %-10s %12s %10s\n", "kernel", "level",
              "prec", "regime", "ns/pass", "vs scalar");
  for (const Result& r : results) {
    std::printf("%-22s %-7s %-5s %-10s %12.0f %9.2fx\n", r.kernel.c_str(),
                r.level.c_str(), r.precision.c_str(), r.regime.c_str(),
                r.ns_per_pass, r.speedup_vs_scalar);
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
  doc.Set("f32_rel_budget", JsonValue::Number(kF32RelBudget));
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
    e.Set("precision", JsonValue::Str(r.precision));
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
  bench::WriteBenchJson(out_name, doc);

  if (perf_gate_failed || drift_gate_failed) {
    std::printf("\nkernels_bench: GATES FAILED\n");
    return 2;
  }
  std::printf("\nkernels_bench: all gates passed\n");
  return 0;
}

}  // namespace
}  // namespace mllibstar

int main(int argc, char** argv) {
  double min_speedup = 1.5;
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
