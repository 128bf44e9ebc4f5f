#include "data/partition.h"

#include "common/logging.h"

namespace mllibstar {

std::vector<std::vector<DataPoint>> PartitionRoundRobin(
    const Dataset& dataset, size_t k) {
  MLLIBSTAR_CHECK_GT(k, 0u);
  std::vector<std::vector<DataPoint>> parts(k);
  for (size_t i = 0; i < dataset.size(); ++i) {
    parts[i % k].push_back(dataset.point(i));
  }
  return parts;
}

std::vector<std::vector<DataPoint>> PartitionContiguous(
    const Dataset& dataset, size_t k) {
  MLLIBSTAR_CHECK_GT(k, 0u);
  std::vector<std::vector<DataPoint>> parts(k);
  const size_t n = dataset.size();
  const size_t base = n / k;
  const size_t extra = n % k;
  size_t offset = 0;
  for (size_t r = 0; r < k; ++r) {
    const size_t count = base + (r < extra ? 1 : 0);
    parts[r].reserve(count);
    for (size_t i = 0; i < count; ++i) {
      parts[r].push_back(dataset.point(offset + i));
    }
    offset += count;
  }
  return parts;
}

std::vector<CsrBlock> PartitionCsr(const Dataset& dataset, size_t k) {
  MLLIBSTAR_CHECK_GT(k, 0u);
  std::vector<CsrBlock> parts(k);
  const size_t n = dataset.size();
  // Size every block first so the fill pass never reallocates.
  std::vector<size_t> rows(k, 0);
  std::vector<size_t> nnz(k, 0);
  for (size_t i = 0; i < n; ++i) {
    ++rows[i % k];
    nnz[i % k] += dataset.point(i).nnz();
  }
  for (size_t r = 0; r < k; ++r) {
    parts[r].offsets.reserve(rows[r] + 1);
    parts[r].offsets.push_back(0);
    parts[r].indices.reserve(nnz[r]);
    parts[r].labels.reserve(rows[r]);
  }
  // One pass over the points, which reads each point's indices and
  // values together; a block of one-hot rows never gets value arrays.
  for (size_t i = 0; i < n; ++i) parts[i % k].AppendRow(dataset.point(i));
  // Build each block's f32 row views and check alignment.
  for (CsrBlock& b : parts) b.Finalize();
  return parts;
}

std::vector<ModelRange> PartitionModel(size_t dim, size_t k) {
  MLLIBSTAR_CHECK_GT(k, 0u);
  std::vector<ModelRange> ranges(k);
  const size_t base = dim / k;
  const size_t extra = dim % k;
  FeatureIndex offset = 0;
  for (size_t r = 0; r < k; ++r) {
    const size_t count = base + (r < extra ? 1 : 0);
    ranges[r].begin = offset;
    ranges[r].end = offset + static_cast<FeatureIndex>(count);
    offset = ranges[r].end;
  }
  return ranges;
}

size_t OwnerOfCoordinate(const std::vector<ModelRange>& ranges,
                         FeatureIndex i) {
  size_t lo = 0;
  size_t hi = ranges.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (i < ranges[mid].begin) {
      hi = mid;
    } else if (i >= ranges[mid].end) {
      lo = mid + 1;
    } else {
      return mid;
    }
  }
  MLLIBSTAR_CHECK(false) << "coordinate " << i << " outside all ranges";
  return 0;
}

}  // namespace mllibstar
