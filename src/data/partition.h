#ifndef MLLIBSTAR_DATA_PARTITION_H_
#define MLLIBSTAR_DATA_PARTITION_H_

#include <cstddef>
#include <vector>

#include "core/csr_block.h"
#include "data/dataset.h"

namespace mllibstar {

/// Splits the dataset's rows into `k` CSR blocks by dealing them
/// round-robin (the layout Spark gets after a random repartition):
/// dataset row i becomes row i / k of block i % k. Each row's index
/// span, and its value span if the dataset stores values, is copied
/// straight from the dataset's block. The trainers' hot loops scan
/// these blocks linearly. A block whose values are all exactly 1.0
/// comes out value-free (core/csr_block.h).
std::vector<CsrBlock> PartitionCsr(const Dataset& dataset, size_t k);

}  // namespace mllibstar

#endif  // MLLIBSTAR_DATA_PARTITION_H_
