#ifndef MLLIBSTAR_COMMON_FNV1A_H_
#define MLLIBSTAR_COMMON_FNV1A_H_

#include <bit>
#include <cstdint>

namespace mllibstar {

/// FNV-1a offset basis: the digest of an empty word stream.
inline constexpr uint64_t kFnv1aBasis = 1469598103934665603ull;

/// Folds one 64-bit word into the FNV-1a digest `*h`, a byte at a time,
/// least significant first. The repository's one checksum: checkpoint
/// integrity, the benches' weight checksums and the tests' golden
/// digests all run this mixer over a word stream.
inline void Fnv1aMix(uint64_t word, uint64_t* h) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (word >> (8 * b)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

/// Folds a double's exact bit pattern, so any single-ulp change moves
/// the digest.
inline void Fnv1aMix(double value, uint64_t* h) {
  Fnv1aMix(std::bit_cast<uint64_t>(value), h);
}

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMMON_FNV1A_H_
