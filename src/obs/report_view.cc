#include "obs/report_view.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace mllibstar {

namespace {

double NumberOr(const JsonValue* v, double fallback) {
  if (v == nullptr || v->kind() != JsonValue::Kind::kNumber) return fallback;
  return v->number_value();
}

std::string StringOr(const JsonValue* v, const std::string& fallback) {
  if (v == nullptr || v->kind() != JsonValue::Kind::kString) return fallback;
  return v->string_value();
}

std::string FormatNum(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  }
  return buf;
}

std::string FormatBytes(double v) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g %s", v, units[u]);
  return buf;
}

}  // namespace

std::string Sparkline(const std::vector<double>& values) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : values) {
    int level = 3;  // flat series: mid-level bar
    if (hi > lo) {
      level = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
      level = std::max(0, std::min(level, 7));
    }
    out += kLevels[level];
  }
  return out;
}

std::string RenderRunReport(const JsonValue& report) {
  std::ostringstream out;
  const std::string schema = StringOr(report.Find("schema"), "?");
  const std::string system = StringOr(report.Find("system"), "?");
  out << "RunReport " << schema << " — system " << system << "\n";

  if (const JsonValue* result = report.Find("result")) {
    out << "result: comm_steps=" << FormatNum(NumberOr(result->Find("comm_steps"), 0))
        << "  sim_seconds=" << FormatNum(NumberOr(result->Find("sim_seconds"), 0))
        << "  bytes=" << FormatBytes(NumberOr(result->Find("total_bytes"), 0))
        << "  updates=" << FormatNum(NumberOr(result->Find("total_model_updates"), 0));
    if (const JsonValue* d = result->Find("diverged")) {
      if (d->kind() == JsonValue::Kind::kBool && d->bool_value()) {
        out << "  DIVERGED";
      }
    }
    out << "\n";
  }

  if (const JsonValue* curve = report.Find("curve")) {
    std::vector<double> objectives;
    if (const JsonValue* points = curve->Find("points")) {
      for (size_t i = 0; i < points->size(); ++i) {
        objectives.push_back(NumberOr(points->at(i).Find("objective"), 0.0));
      }
    }
    out << "curve: " << objectives.size() << " points, final objective "
        << FormatNum(NumberOr(curve->Find("final_objective"), 0.0)) << "\n";
    if (!objectives.empty()) {
      out << "  objective " << Sparkline(objectives) << "\n";
    }
  }

  if (const JsonValue* util = report.Find("utilization")) {
    if (const JsonValue* cluster = util->Find("cluster")) {
      out << "utilization: cluster busy="
          << FormatNum(NumberOr(cluster->Find("busy"), 0)) << "s  util="
          << FormatNum(NumberOr(cluster->Find("utilization"), 0)) << "\n";
    }
  }

  if (const JsonValue* series = report.Find("series")) {
    out << "series (" << series->size() << "):\n";
    for (size_t i = 0; i < series->size(); ++i) {
      const JsonValue& s = series->at(i);
      std::vector<double> values;
      double last = 0.0;
      if (const JsonValue* points = s.Find("points")) {
        for (size_t j = 0; j < points->size(); ++j) {
          values.push_back(NumberOr(points->at(j).Find("value"), 0.0));
        }
      }
      if (!values.empty()) last = values.back();
      double lo = 0.0, hi = 0.0;
      if (!values.empty()) {
        lo = *std::min_element(values.begin(), values.end());
        hi = *std::max_element(values.begin(), values.end());
      }
      char head[128];
      std::snprintf(head, sizeof head, "  %-18s %3zu pts  ",
                    StringOr(s.Find("name"), "?").c_str(), values.size());
      out << head << Sparkline(values) << "  min=" << FormatNum(lo)
          << " max=" << FormatNum(hi) << " last=" << FormatNum(last);
      const double dropped = NumberOr(s.Find("dropped"), 0.0);
      if (dropped > 0) out << "  dropped=" << FormatNum(dropped);
      out << "\n";
    }
  }

  if (const JsonValue* rounds = report.Find("rounds")) {
    out << "rounds (" << rounds->size() << "):\n";
    const size_t n = rounds->size();
    // Long runs: first rows, an ellipsis, last rows.
    const size_t kHead = 8, kTail = 4;
    out << "  round   tasks   p50      p95      max      compute  wait     "
           "comm     wire\n";
    for (size_t i = 0; i < n; ++i) {
      if (n > kHead + kTail && i == kHead) {
        out << "  ... " << (n - kHead - kTail) << " rounds elided ...\n";
      }
      if (n > kHead + kTail && i >= kHead && i < n - kTail) continue;
      const JsonValue& r = rounds->at(i);
      double wire = 0.0;
      if (const JsonValue* bytes = r.Find("bytes")) {
        wire = NumberOr(bytes->Find("broadcast"), 0) +
               NumberOr(bytes->Find("tree_aggregate"), 0) +
               NumberOr(bytes->Find("shuffle"), 0) +
               NumberOr(bytes->Find("pull"), 0) +
               NumberOr(bytes->Find("push"), 0);
      }
      char row[256];
      std::snprintf(row, sizeof row,
                    "  %-7s %-7s %-8s %-8s %-8s %-8s %-8s %-8s %s\n",
                    FormatNum(NumberOr(r.Find("round"), 0)).c_str(),
                    FormatNum(NumberOr(r.Find("tasks"), 0)).c_str(),
                    FormatNum(NumberOr(r.Find("task_p50"), 0)).c_str(),
                    FormatNum(NumberOr(r.Find("task_p95"), 0)).c_str(),
                    FormatNum(NumberOr(r.Find("task_max"), 0)).c_str(),
                    FormatNum(NumberOr(r.Find("compute_sec"), 0)).c_str(),
                    FormatNum(NumberOr(r.Find("wait_sec"), 0)).c_str(),
                    FormatNum(NumberOr(r.Find("comm_sec"), 0)).c_str(),
                    FormatBytes(wire).c_str());
      out << row;
    }
  }

  if (const JsonValue* profiler = report.Find("profiler")) {
    out << "profiler:";
    if (const JsonValue* rate = profiler->Find("host_us_per_sim_sec")) {
      out << " host_us_per_sim_sec="
          << FormatNum(rate->number_value());
    }
    out << " total_events="
        << FormatNum(NumberOr(profiler->Find("total_events"), 0)) << "\n";
    if (const JsonValue* subs = profiler->Find("subsystems")) {
      for (size_t i = 0; i < subs->size(); ++i) {
        const JsonValue& s = subs->at(i);
        char row[160];
        std::snprintf(row, sizeof row, "  %-12s %10s us  %10s events\n",
                      StringOr(s.Find("name"), "?").c_str(),
                      FormatNum(NumberOr(s.Find("host_us"), 0)).c_str(),
                      FormatNum(NumberOr(s.Find("events"), 0)).c_str());
        out << row;
      }
    }
  }

  if (const JsonValue* buffers = report.Find("telemetry")) {
    out << "telemetry: spans=" << FormatNum(NumberOr(buffers->Find("spans"), 0))
        << " (dropped " << FormatNum(NumberOr(buffers->Find("spans_dropped"), 0))
        << ")\n";
  }

  return out.str();
}

}  // namespace mllibstar
