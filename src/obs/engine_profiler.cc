#include "obs/engine_profiler.h"

#include <chrono>

namespace mllibstar {
namespace {

uint64_t ProfilerNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Frame {
  Subsystem subsystem;
  uint64_t resume_us;
};

thread_local std::vector<Frame> tls_frames;

}  // namespace

const char* SubsystemName(Subsystem s) {
  switch (s) {
    case Subsystem::kEngine:
      return "engine";
    case Subsystem::kKernels:
      return "kernels";
    case Subsystem::kPs:
      return "ps";
    case Subsystem::kCodec:
      return "codec";
    case Subsystem::kCheckpoint:
      return "checkpoint";
    case Subsystem::kEval:
      return "eval";
    case Subsystem::kCount:
      break;
  }
  return "unknown";
}

EngineProfiler& EngineProfiler::Get() {
  static EngineProfiler* instance = new EngineProfiler();
  return *instance;
}

void EngineProfiler::AddEvents(Subsystem s, uint64_t n) {
  if (!enabled()) return;
  events_[static_cast<size_t>(s)].fetch_add(n, std::memory_order_relaxed);
}

void EngineProfiler::Reset() {
  for (auto& v : host_us_) v.store(0, std::memory_order_relaxed);
  for (auto& v : events_) v.store(0, std::memory_order_relaxed);
}

std::vector<SubsystemStats> EngineProfiler::Snapshot() const {
  std::vector<SubsystemStats> out;
  out.reserve(static_cast<size_t>(Subsystem::kCount));
  for (size_t i = 0; i < static_cast<size_t>(Subsystem::kCount); ++i) {
    SubsystemStats s;
    s.name = SubsystemName(static_cast<Subsystem>(i));
    s.host_us = host_us_[i].load(std::memory_order_relaxed);
    s.events = events_[i].load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t EngineProfiler::TotalHostUs() const {
  uint64_t total = 0;
  for (const auto& v : host_us_) total += v.load(std::memory_order_relaxed);
  return total;
}

uint64_t EngineProfiler::TotalEvents() const {
  uint64_t total = 0;
  for (const auto& v : events_) total += v.load(std::memory_order_relaxed);
  return total;
}

EngineProfiler::Scope::Scope(Subsystem s) : subsystem_(s) {
  EngineProfiler& prof = EngineProfiler::Get();
  if (!prof.enabled()) return;
  active_ = true;
  const uint64_t now = ProfilerNowUs();
  if (!tls_frames.empty()) {
    Frame& parent = tls_frames.back();
    prof.host_us_[static_cast<size_t>(parent.subsystem)].fetch_add(
        now - parent.resume_us, std::memory_order_relaxed);
  }
  tls_frames.push_back({s, now});
}

EngineProfiler::Scope::~Scope() {
  if (!active_) return;
  EngineProfiler& prof = EngineProfiler::Get();
  const uint64_t now = ProfilerNowUs();
  // Charge the innermost frame (ours, unless scopes were interleaved
  // non-LIFO, which the RAII discipline rules out).
  if (!tls_frames.empty()) {
    Frame& top = tls_frames.back();
    prof.host_us_[static_cast<size_t>(top.subsystem)].fetch_add(
        now - top.resume_us, std::memory_order_relaxed);
    tls_frames.pop_back();
  }
  if (!tls_frames.empty()) tls_frames.back().resume_us = now;
}

}  // namespace mllibstar
