#include "data/partition.h"

#include "common/logging.h"

namespace mllibstar {

std::vector<CsrBlock> PartitionCsr(const Dataset& dataset, size_t k) {
  MLLIBSTAR_CHECK_GT(k, 0u);
  const CsrBlock& rows = dataset.rows();
  const size_t n = rows.rows();
  // Size every block first, from the offsets alone, so the deal never
  // reallocates.
  std::vector<size_t> part_rows(k, 0);
  std::vector<size_t> part_nnz(k, 0);
  for (size_t i = 0; i < n; ++i) {
    ++part_rows[i % k];
    part_nnz[i % k] += rows.row_nnz(i);
  }
  std::vector<CsrBlock> parts(k);
  for (size_t r = 0; r < k; ++r) parts[r].Reserve(part_rows[r], part_nnz[r]);
  for (size_t i = 0; i < n; ++i) parts[i % k].AppendRow(rows, i);
  return parts;
}

}  // namespace mllibstar
