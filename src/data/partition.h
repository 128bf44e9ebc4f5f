#ifndef MLLIBSTAR_DATA_PARTITION_H_
#define MLLIBSTAR_DATA_PARTITION_H_

#include <cstddef>
#include <vector>

#include "core/csr_block.h"
#include "core/datapoint.h"
#include "data/dataset.h"

namespace mllibstar {

/// Splits the dataset's points into `k` partitions by dealing rows
/// round-robin (the layout Spark gets after a random repartition). The
/// DataPoint reference that tests hold PartitionCsr to.
std::vector<std::vector<DataPoint>> PartitionRoundRobin(
    const Dataset& dataset, size_t k);

/// Round-robin split packed directly into CSR blocks: the same row
/// assignment as PartitionRoundRobin, but each partition lands in a few
/// contiguous arrays instead of per-point heap vectors. The trainers'
/// hot loops scan these blocks linearly. A block whose values are all
/// exactly 1.0 comes out value-free (core/csr_block.h).
///
/// The deal, shared with PartitionRoundRobin: dataset row i becomes
/// row i / k of partition i % k. Evaluation walks the partitions and
/// puts every row back in dataset order through RoundRobinRow.
std::vector<CsrBlock> PartitionCsr(const Dataset& dataset, size_t k);

/// Dataset row of row `row` of partition `partition` in a k-way
/// round-robin deal (see PartitionCsr).
inline size_t RoundRobinRow(size_t partition, size_t row, size_t k) {
  return row * k + partition;
}

}  // namespace mllibstar

#endif  // MLLIBSTAR_DATA_PARTITION_H_
