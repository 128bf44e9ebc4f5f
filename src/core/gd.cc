#include "core/gd.h"

#include <numeric>


namespace mllibstar {
namespace {

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  return all;
}

}  // namespace

std::vector<size_t> SampleBatch(size_t n, size_t batch_size, Rng* rng) {
  if (batch_size >= n) return Iota(n);
  std::vector<size_t> batch;
  batch.reserve(batch_size);
  if (batch_size * 4 >= n) {
    // Large fractions: partial Fisher-Yates over an index pool.
    std::vector<size_t> pool = Iota(n);
    for (size_t i = 0; i < batch_size; ++i) {
      const size_t j = i + rng->NextUint64(n - i);
      std::swap(pool[i], pool[j]);
      batch.push_back(pool[i]);
    }
  } else {
    // Floyd's sampling: exactly batch_size draws, uniform over subsets,
    // no retries as the batch fills. Step i draws j from [0, i] and
    // takes j, or i itself if j is already taken; every earlier pick is
    // below i, so i never is. The picks are marked in a bitmap of n
    // bits, zeroed once per call.
    std::vector<uint64_t> chosen((n + 63) / 64, 0);
    for (size_t i = n - batch_size; i < n; ++i) {
      size_t row = rng->NextUint64(i + 1);
      if ((chosen[row / 64] >> (row % 64)) & 1) row = i;
      chosen[row / 64] |= uint64_t{1} << (row % 64);
      batch.push_back(row);
    }
  }
  return batch;
}

DenseVector ScaledVector::ToDense() const {
  DenseVector result = v_;
  result.Scale(scale_);
  return result;
}

void ScaledVector::Materialize() {
  v_.Scale(scale_);
  scale_ = 1.0;
}

}  // namespace mllibstar
