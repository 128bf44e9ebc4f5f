#include "obs/metrics.h"

#include <algorithm>

namespace mllibstar {

std::string MetricsRegistry::CanonicalKey(const std::string& name,
                                          const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

ObsCounter& MetricsRegistry::Counter(const std::string& name,
                                     const MetricLabels& labels) {
  const std::string key = CanonicalKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series s;
    s.name = name;
    s.labels = labels;
    std::sort(s.labels.begin(), s.labels.end());
    s.counter = std::make_unique<ObsCounter>();
    it = series_.emplace(key, std::move(s)).first;
  }
  return *it->second.counter;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    MetricSample sample;
    sample.name = s.name;
    sample.labels = s.labels;
    sample.value = static_cast<double>(s.counter->value());
    out.push_back(std::move(sample));
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, s] : series_) s.counter->Reset();
}

}  // namespace mllibstar
