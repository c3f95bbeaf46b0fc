#pragma once

// Per-layer split of a traced window.  Every number is measured from
// outside the layer: the client-observed timings of each request, the
// obs::TraceRecorder spans grouped by the request's trace id, and the
// counter deltas of ServiceMetrics, TuneService::metrics and Server::stats.

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TraceCapture {
  std::vector<qross::obs::TraceEvent> events;
  std::uint64_t evicted = 0;
  Clock::time_point epoch{};
};

/// Every per-layer metric, in a fixed order; a layer the workload never
/// enters reports 0.  `untraced` is the preceding window with tracing off,
/// the base of the tracing overhead.  `sessions` marks tune_remote, whose
/// requests are tune sessions rather than jobs.
std::vector<Metric> layer_metrics(const Window& untraced, const Window& traced,
                                  const TraceCapture& trace,
                                  const KernelShape& kernel, bool sessions);

}  // namespace perfbench
