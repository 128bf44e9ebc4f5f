#ifndef MLLIBSTAR_OBS_CHROME_TRACE_H_
#define MLLIBSTAR_OBS_CHROME_TRACE_H_

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "obs/telemetry.h"
#include "sim/trace.h"

namespace mllibstar {

/// Builds a Chrome trace-event document (loadable in Perfetto or
/// chrome://tracing) from a simulated-run trace plus, optionally, the
/// host-side telemetry spans:
///
///   - pid 1 "virtual time": one named thread track per simulated node
///     (driver, workers, servers, ...), each TraceEvent as a complete
///     ("X") slice with the activity kind as the slice name, stage
///     marks as global instant events. Sim seconds map to trace
///     microseconds 1:1 so a 3 s simulated run reads as 3 s.
///   - pid 2 "host wall time": telemetry spans as slices on one track
///     per recording host thread.
///
/// Fault, recovery and membership bars are TraceEvents, so they are
/// pid-1 slices on the node they happened to.
///
/// `telemetry` may be null (or disabled/empty) — the virtual-time
/// process alone is still a valid trace.
JsonValue ChromeTraceJson(const TraceLog& trace,
                          const Telemetry* telemetry = nullptr);

/// Serializes ChromeTraceJson to `path` (compact, one line).
Status WriteChromeTrace(const std::string& path, const TraceLog& trace,
                        const Telemetry* telemetry = nullptr);

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_CHROME_TRACE_H_
