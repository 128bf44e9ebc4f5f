#include "obs/round_profile.h"

#include <algorithm>

namespace mllibstar {

WireTally WireTally::Since(const WireTally& start) const {
  WireTally d;
  d.broadcast = broadcast - start.broadcast;
  d.tree_aggregate = tree_aggregate - start.tree_aggregate;
  d.shuffle = shuffle - start.shuffle;
  d.pull = pull - start.pull;
  d.push = push - start.push;
  d.retries = retries - start.retries;
  return d;
}

WireTally& WireTally::operator+=(const WireTally& other) {
  broadcast += other.broadcast;
  tree_aggregate += other.tree_aggregate;
  shuffle += other.shuffle;
  pull += other.pull;
  push += other.push;
  retries += other.retries;
  return *this;
}

void SetTaskSpread(std::vector<double>* durations, RoundProfile* profile) {
  std::vector<double>& d = *durations;
  profile->tasks = d.size();
  if (d.empty()) return;
  std::sort(d.begin(), d.end());
  const double last = static_cast<double>(d.size() - 1);
  profile->task_p50 = d[static_cast<size_t>(0.5 * last)];
  profile->task_p95 = d[static_cast<size_t>(0.95 * last)];
  profile->task_max = d.back();
}

}  // namespace mllibstar
