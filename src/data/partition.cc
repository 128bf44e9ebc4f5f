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
  // values together; a block of one-hot rows never gets a value array.
  for (size_t i = 0; i < n; ++i) parts[i % k].AppendRow(dataset.point(i));
  // Build each value-free block's run of ones and check alignment.
  for (CsrBlock& b : parts) b.Finalize();
  return parts;
}

}  // namespace mllibstar
