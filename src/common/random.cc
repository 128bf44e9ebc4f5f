#include "common/random.h"

#include <cstring>

#include "common/logging.h"

namespace mllibstar {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  MLLIBSTAR_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias: a draw below 2^64 mod
  // bound is rejected. That threshold is below bound, so only a draw
  // below bound can fall under it, and only then is it computed.
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= bound || r >= -bound % bound) return r % bound;
  }
}

uint32_t Rng::NextUint32(uint32_t bound) {
  return static_cast<uint32_t>(NextUint64(bound));
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextUint64()); }

std::array<uint64_t, Rng::kStateWords> Rng::SaveState() const {
  std::array<uint64_t, kStateWords> words = {};
  for (size_t i = 0; i < 4; ++i) words[i] = state_[i];
  words[4] = has_cached_gaussian_ ? 1 : 0;
  std::memcpy(&words[5], &cached_gaussian_, sizeof(words[5]));
  return words;
}

void Rng::RestoreState(const std::array<uint64_t, kStateWords>& words) {
  for (size_t i = 0; i < 4; ++i) state_[i] = words[i];
  has_cached_gaussian_ = words[4] != 0;
  std::memcpy(&cached_gaussian_, &words[5], sizeof(cached_gaussian_));
}

ZipfSampler::ZipfSampler(uint64_t n, double alpha) : n_(n) {
  MLLIBSTAR_CHECK_GT(n, 0u);
  // Inverse-CDF sampling on the continuous approximation of the bounded
  // power law, which is accurate enough for workload generation and O(1).
  if (alpha == 1.0) alpha = 1.0000001;
  const double exponent = 1.0 - alpha;
  span_ = std::pow(static_cast<double>(n), exponent) - 1.0;
  inv_exponent_ = 1.0 / exponent;
}

uint64_t ZipfSampler::Draw(Rng* rng) const {
  if (n_ == 1) return 0;
  const double u = rng->NextDouble();
  const double x = std::pow(u * span_ + 1.0, inv_exponent_);
  uint64_t k = static_cast<uint64_t>(x) - 1;
  if (k >= n_) k = n_ - 1;
  return k;
}

}  // namespace mllibstar
