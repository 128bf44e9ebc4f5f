#include "sim/fault_plan.h"

#include <algorithm>

namespace mllibstar {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan),
      rng_(kFaultSeed),
      worker_fired_(plan.worker_crashes.size(), false) {}

bool FaultInjector::WorkerCrashes(size_t worker, SimTime start, SimTime end,
                                  SimTime* crash_at) {
  // Scripted events win over the probabilistic draw; an event whose
  // instant has already passed (the worker was idle when it was due)
  // fires at the start of the task that observes it.
  for (size_t i = 0; i < plan_.worker_crashes.size(); ++i) {
    const CrashWorkerEvent& ev = plan_.worker_crashes[i];
    if (worker_fired_[i] || ev.worker != worker || ev.at >= end) continue;
    worker_fired_[i] = true;
    ++stats_.worker_crashes;
    *crash_at = std::clamp(ev.at, start, end);
    return true;
  }
  if (plan_.worker_crash_prob > 0.0 &&
      rng_.NextBool(plan_.worker_crash_prob)) {
    ++stats_.worker_crashes;
    // Uniform instant inside the task: the fractional draw keeps the
    // stream consumption fixed at two draws per crashing task.
    *crash_at = start + (end - start) * rng_.NextDouble();
    return true;
  }
  return false;
}

}  // namespace mllibstar
