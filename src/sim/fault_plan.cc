#include "sim/fault_plan.h"

#include <algorithm>

namespace mllibstar {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan),
      rng_(kFaultSeed),
      worker_fired_(plan.worker_crashes.size(), false),
      server_fired_(plan.server_crashes.size(), false) {
}

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

bool FaultInjector::ServerCrashDue(size_t server, SimTime now,
                                   SimTime* crash_at) {
  for (size_t i = 0; i < plan_.server_crashes.size(); ++i) {
    const CrashServerEvent& ev = plan_.server_crashes[i];
    if (server_fired_[i] || ev.server != server || ev.at > now) continue;
    server_fired_[i] = true;
    ++stats_.server_crashes;
    *crash_at = ev.at;
    return true;
  }
  return false;
}

double FaultInjector::LinkFactor(SimTime at) const {
  double factor = 1.0;
  for (const DegradeLinkWindow& w : plan_.degraded_links) {
    if (at >= w.from && at < w.until) factor *= w.factor;
  }
  return factor;
}

bool FaultInjector::NextMessageDrop(SimTime at) {
  for (const DropMessageWindow& w : plan_.message_drops) {
    if (at >= w.from && at < w.until && rng_.NextBool(w.prob)) {
      ++stats_.messages_dropped;
      return true;
    }
  }
  return false;
}

double FaultInjector::NextBackoffJitter() { return rng_.NextDouble(); }

}  // namespace mllibstar
