#ifndef MLLIBSTAR_SIM_NETWORK_H_
#define MLLIBSTAR_SIM_NETWORK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/trace.h"

namespace mllibstar {

/// Analytic network cost model: every node has one full-duplex link of
/// `bandwidth` bytes/sec to a non-blocking switch, and every message
/// pays `latency` seconds. Transfers through the same link direction
/// serialize; opposite directions overlap.
///
/// This is the standard alpha-beta model used to analyze the MPI
/// collectives the paper borrows (Thakur et al. [16]), which is exactly
/// the level at which the paper reasons about MLlib vs MLlib*
/// communication (2km bytes total in both, but driver-serialized vs
/// spread across k links).
class NetworkModel {
 public:
  NetworkModel(double latency_sec, double bandwidth_bytes_per_sec)
      : latency_(latency_sec), bandwidth_(bandwidth_bytes_per_sec) {}

  double latency() const { return latency_; }
  double bandwidth() const { return bandwidth_; }

  /// Time for one point-to-point message of `bytes`.
  SimTime TransferTime(uint64_t bytes) const {
    return latency_ + static_cast<double>(bytes) / bandwidth_;
  }

  /// Time for `count` messages of `bytes` each arriving at (or leaving)
  /// one node: the link serializes the payloads, and message setup
  /// latencies overlap with the preceding payloads except the first.
  SimTime SerializedTransferTime(uint64_t bytes, size_t count) const {
    if (count == 0) return 0.0;
    return latency_ +
           static_cast<double>(bytes) * static_cast<double>(count) /
               bandwidth_;
  }

  /// Bytes for a dense model (or gradient) of `dim` doubles.
  static uint64_t DenseBytes(size_t dim) { return 8ull * dim; }

  /// Bytes for a sparse update of `nnz` (index, value) pairs out of
  /// `dim` coordinates: a 4-byte index and an 8-byte double each, never
  /// more than the dense vector. The PS pushes ship this.
  static uint64_t SparseBytes(size_t nnz, size_t dim) {
    return std::min<uint64_t>(12ull * nnz, DenseBytes(dim));
  }

 private:
  double latency_;
  double bandwidth_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_SIM_NETWORK_H_
