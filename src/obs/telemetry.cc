#include "obs/telemetry.h"

#include "obs/engine_profiler.h"

namespace mllibstar {

namespace {

/// Per-thread span nesting depth (only mutated while telemetry is
/// enabled and a ScopedSpan is alive on this thread).
thread_local int tls_span_depth = 0;

std::atomic<uint64_t> g_next_thread_ordinal{0};
thread_local uint64_t tls_thread_ordinal = ~uint64_t{0};

}  // namespace

Telemetry& Telemetry::Get() {
  static Telemetry* instance = new Telemetry();
  return *instance;
}

void Telemetry::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  EngineProfiler::Get().set_enabled(on);
}

uint64_t Telemetry::HostNowUs() const {
  const auto now = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now - epoch_)
          .count());
}

uint64_t Telemetry::ThreadOrdinal() {
  if (tls_thread_ordinal == ~uint64_t{0}) {
    tls_thread_ordinal =
        g_next_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_ordinal;
}

void Telemetry::RecordSpan(SpanRecord span) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= span_capacity_) {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Telemetry::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Telemetry::set_span_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  span_capacity_ = capacity > 0 ? capacity : 1;
}

size_t Telemetry::span_capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return span_capacity_;
}

void Telemetry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  spans_dropped_.store(0, std::memory_order_relaxed);
  EngineProfiler::Get().Reset();
  epoch_ = std::chrono::steady_clock::now();
}

ScopedSpan::ScopedSpan(const std::string& name, const std::string& track,
                       Telemetry& sink) {
  if (!sink.enabled()) return;
  sink_ = &sink;
  active_ = true;
  record_.name = name;
  record_.track = track;
  record_.host_start_us = sink.HostNowUs();
  record_.depth = tls_span_depth++;
  record_.thread_id = Telemetry::ThreadOrdinal();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  --tls_span_depth;
  record_.host_end_us = sink_->HostNowUs();
  sink_->RecordSpan(std::move(record_));
}

void ScopedSpan::SetSimRange(SimTime start, SimTime end) {
  if (!active_) return;
  record_.sim_start = start;
  record_.sim_end = end;
}

}  // namespace mllibstar
