#include "obs/chrome_trace.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <vector>

namespace mllibstar {

namespace {

constexpr int kVirtualPid = 1;
constexpr int kHostPid = 2;

JsonValue MetadataEvent(const std::string& what, int pid, int tid,
                        const std::string& name) {
  JsonValue ev = JsonValue::Object();
  ev.Set("name", JsonValue::Str(what));
  ev.Set("ph", JsonValue::Str("M"));
  ev.Set("pid", JsonValue::Number(static_cast<int64_t>(pid)));
  if (tid >= 0) ev.Set("tid", JsonValue::Number(static_cast<int64_t>(tid)));
  JsonValue args = JsonValue::Object();
  args.Set("name", JsonValue::Str(name));
  ev.Set("args", std::move(args));
  return ev;
}

}  // namespace

JsonValue ChromeTraceJson(const TraceLog& trace, const Telemetry* telemetry) {
  JsonValue events = JsonValue::Array();

  // --- pid 1: the simulated cluster, one track per node, in order of
  // first appearance (same row order as the ASCII gantt).
  events.Append(MetadataEvent("process_name", kVirtualPid, -1,
                              "virtual time (simulated cluster)"));
  std::map<std::string, int> node_tid;
  std::vector<std::string> node_order;
  for (const TraceEvent& e : trace.events()) {
    if (node_tid.emplace(e.node, static_cast<int>(node_order.size())).second) {
      node_order.push_back(e.node);
    }
  }
  for (size_t i = 0; i < node_order.size(); ++i) {
    events.Append(MetadataEvent("thread_name", kVirtualPid,
                                static_cast<int>(i), node_order[i]));
  }
  for (const TraceEvent& e : trace.events()) {
    JsonValue ev = JsonValue::Object();
    ev.Set("name", JsonValue::Str(ActivityName(e.kind)));
    ev.Set("cat", JsonValue::Str("sim"));
    ev.Set("ph", JsonValue::Str("X"));
    ev.Set("pid", JsonValue::Number(static_cast<int64_t>(kVirtualPid)));
    ev.Set("tid", JsonValue::Number(static_cast<int64_t>(node_tid[e.node])));
    ev.Set("ts", JsonValue::Number(e.start * 1e6));
    ev.Set("dur", JsonValue::Number((e.end - e.start) * 1e6));
    if (!e.detail.empty()) {
      JsonValue args = JsonValue::Object();
      args.Set("detail", JsonValue::Str(e.detail));
      ev.Set("args", std::move(args));
    }
    events.Append(std::move(ev));
  }
  for (const auto& [time, label] : trace.stages()) {
    JsonValue ev = JsonValue::Object();
    ev.Set("name", JsonValue::Str(label));
    ev.Set("cat", JsonValue::Str("stage"));
    ev.Set("ph", JsonValue::Str("i"));
    ev.Set("s", JsonValue::Str("g"));  // global scope: full-height line
    ev.Set("pid", JsonValue::Number(static_cast<int64_t>(kVirtualPid)));
    ev.Set("tid", JsonValue::Number(static_cast<int64_t>(0)));
    ev.Set("ts", JsonValue::Number(time * 1e6));
    events.Append(std::move(ev));
  }

  // --- pid 2: host wall time from the telemetry sink.
  const std::vector<SpanRecord> spans =
      telemetry ? telemetry->spans() : std::vector<SpanRecord>{};
  if (!spans.empty()) {
    events.Append(
        MetadataEvent("process_name", kHostPid, -1, "host wall time"));
    std::vector<uint64_t> threads;
    for (const SpanRecord& s : spans) threads.push_back(s.thread_id);
    std::sort(threads.begin(), threads.end());
    threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
    for (uint64_t t : threads) {
      events.Append(MetadataEvent("thread_name", kHostPid,
                                  static_cast<int>(t),
                                  "host-thread-" + std::to_string(t)));
    }
    for (const SpanRecord& s : spans) {
      JsonValue ev = JsonValue::Object();
      ev.Set("name", JsonValue::Str(s.name));
      ev.Set("cat", JsonValue::Str("host"));
      ev.Set("ph", JsonValue::Str("X"));
      ev.Set("pid", JsonValue::Number(static_cast<int64_t>(kHostPid)));
      ev.Set("tid", JsonValue::Number(s.thread_id));
      ev.Set("ts", JsonValue::Number(s.host_start_us));
      ev.Set("dur", JsonValue::Number(s.host_end_us - s.host_start_us));
      JsonValue args = JsonValue::Object();
      args.Set("track", JsonValue::Str(s.track));
      if (s.sim_start >= 0.0) {
        args.Set("sim_start_s", JsonValue::Number(s.sim_start));
        args.Set("sim_end_s", JsonValue::Number(s.sim_end));
      }
      ev.Set("args", std::move(args));
      events.Append(std::move(ev));
    }
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", JsonValue::Str("ms"));
  return doc;
}

Status WriteChromeTrace(const std::string& path, const TraceLog& trace,
                        const Telemetry* telemetry) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ChromeTraceJson(trace, telemetry).Dump() << '\n';
  out.close();
  if (!out) return Status::IoError("failed writing " + path);
  return Status::Ok();
}

}  // namespace mllibstar
