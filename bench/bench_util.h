#ifndef MLLIBSTAR_BENCH_BENCH_UTIL_H_
#define MLLIBSTAR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fnv1a.h"
#include "common/json.h"
#include "core/convergence.h"
#include "core/vector.h"
#include "obs/chrome_trace.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "train/report.h"

namespace mllibstar {
namespace bench {

/// FNV-1a over the exact bit patterns of the weights: any single-ulp
/// difference between runs changes the digest.
inline uint64_t WeightsChecksum(const DenseVector& w) {
  uint64_t h = kFnv1aBasis;
  for (size_t i = 0; i < w.dim(); ++i) Fnv1aMix(w[i], &h);
  return h;
}

/// Directory all figure harnesses write their CSV series into.
inline std::string ResultsDir() {
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  return "results";
}

/// Writes the curves for one subfigure and logs where they went.
inline void SaveCurves(const std::string& stem,
                       const std::vector<ConvergenceCurve>& curves) {
  const std::string path = ResultsDir() + "/" + stem + ".csv";
  const Status st = WriteCurvesCsv(path, curves);
  if (st.ok()) {
    std::printf("  [series written to %s]\n", path.c_str());
  } else {
    std::printf("  [could not write %s: %s]\n", path.c_str(),
                st.ToString().c_str());
  }
}

/// Writes a machine-readable bench report (the BENCH_*.json family)
/// into results/ and logs where it went. Returns the full path, or ""
/// on failure.
inline std::string WriteBenchJson(const std::string& filename,
                                  const JsonValue& doc) {
  const std::string path = ResultsDir() + "/" + filename;
  std::ofstream out(path);
  if (!out) {
    std::printf("  [could not write %s]\n", path.c_str());
    return "";
  }
  out << doc.Dump(2) << "\n";
  out.close();
  std::printf("  [bench report written to %s]\n", path.c_str());
  return path;
}

/// Filesystem-safe file stem: SystemName() uses '*' and '+'.
inline std::string SanitizeStem(std::string stem) {
  for (char& c : stem) {
    if (c == '*') c = 's';
    if (c == '+') c = 'p';
  }
  return stem;
}

/// Writes the telemetry artifacts for one finished run: a
/// Perfetto-loadable Chrome trace (results/<stem>.trace.json) when
/// `chrome_trace` is set and a unified RunReport
/// (results/<stem>.report.json) when `run_report` is set. Callers
/// that want host-side spans in the trace and the host-time profile in
/// the report must enable Telemetry::Get() before training and Clear()
/// it between runs.
inline void ExportRunArtifacts(const TrainResult& result,
                               const std::string& stem, bool chrome_trace,
                               bool run_report) {
  const std::string safe = SanitizeStem(stem);
  Telemetry& obs = Telemetry::Get();
  if (chrome_trace) {
    const std::string path = ResultsDir() + "/" + safe + ".trace.json";
    const Status st = WriteChromeTrace(path, result.trace,
                                       obs.enabled() ? &obs : nullptr);
    if (st.ok()) {
      std::printf("  [chrome trace written to %s]\n", path.c_str());
    } else {
      std::printf("  [could not write %s: %s]\n", path.c_str(),
                  st.ToString().c_str());
    }
  }
  if (run_report) {
    const std::string path = ResultsDir() + "/" + safe + ".report.json";
    const Status st = WriteRunReport(result, path);
    if (st.ok()) {
      std::printf("  [run report written to %s]\n", path.c_str());
    } else {
      std::printf("  [could not write %s: %s]\n", path.c_str(),
                  st.ToString().c_str());
    }
  }
}

/// Prints "label: 12.3x" or "label: n/a (baseline stuck)" speedup rows.
inline void PrintSpeedup(const char* label, std::optional<double> speedup) {
  if (speedup.has_value()) {
    std::printf("  %-34s %8.1fx\n", label, *speedup);
  } else {
    std::printf("  %-34s %8s\n", label, "n/a");
  }
}

}  // namespace bench
}  // namespace mllibstar

#endif  // MLLIBSTAR_BENCH_BENCH_UTIL_H_
