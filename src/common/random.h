#ifndef MLLIBSTAR_COMMON_RANDOM_H_
#define MLLIBSTAR_COMMON_RANDOM_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace mllibstar {

/// Deterministic, fast PRNG (xoshiro256**), seeded via splitmix64.
///
/// Every stochastic component in the library takes an explicit seed so
/// that experiments are reproducible bit-for-bit across runs and
/// platforms. The standard <random> distributions are deliberately not
/// used because their outputs are implementation-defined.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform in [0, bound). bound must be > 0.
  uint32_t NextUint32(uint32_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic given the stream).
  double NextGaussian();

  /// Bernoulli(p) draw.
  bool NextBool(double p);

  /// Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = NextUint64(i);
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Derives an independent child generator (for per-worker streams).
  Rng Fork();

  /// Number of words in a serialized generator state.
  static constexpr size_t kStateWords = 6;

  /// Full generator state — the four xoshiro words plus the Box-Muller
  /// cache — as raw words, for checkpoint/resume. Restoring a saved
  /// state continues the stream exactly where it left off.
  std::array<uint64_t, kStateWords> SaveState() const;
  void RestoreState(const std::array<uint64_t, kStateWords>& words);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Integers from a bounded power-law (Zipf-like) distribution over
/// [0, n): P(k) proportional to 1 / (k + 1)^alpha. Used to model skewed
/// feature popularity in sparse datasets. The distribution's constants
/// are computed once, so a draw costs one uniform and one pow.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double alpha);

  /// One draw; consumes one uniform from `rng` (none when n is 1).
  uint64_t Draw(Rng* rng) const;

 private:
  uint64_t n_;
  double span_;          ///< n^(1 - alpha) - 1
  double inv_exponent_;  ///< 1 / (1 - alpha)
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMMON_RANDOM_H_
