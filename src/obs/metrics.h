#ifndef MLLIBSTAR_OBS_METRICS_H_
#define MLLIBSTAR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mllibstar {

/// Metric label set: ordered (key, value) pairs. Two label sets with
/// the same pairs in a different order identify the same time series
/// (keys are sorted when the series is registered).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Add() is wait-free (one relaxed atomic add), so
/// it is safe from worker-pool threads.
class ObsCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// One exported counter series (see MetricsRegistry::Snapshot).
struct MetricSample {
  std::string name;
  MetricLabels labels;
  double value = 0.0;
};

/// A process-level registry of labeled counters. Registration (the
/// name -> series lookup) takes a mutex; recording through the returned
/// reference is lock-free, so hot paths should capture the reference
/// once. Series live for the registry's lifetime — returned references
/// are stable.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  ObsCounter& Counter(const std::string& name,
                      const MetricLabels& labels = {});

  /// Point-in-time copy of every series, ordered by canonical key
  /// (deterministic across runs).
  std::vector<MetricSample> Snapshot() const;

  /// Zeroes every series (the series themselves survive, so held
  /// references stay valid).
  void Reset();

  /// Canonical series key: name{k1=v1,k2=v2} with labels sorted by key.
  static std::string CanonicalKey(const std::string& name,
                                  const MetricLabels& labels);

 private:
  struct Series {
    std::string name;
    MetricLabels labels;
    std::unique_ptr<ObsCounter> counter;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_METRICS_H_
