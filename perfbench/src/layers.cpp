#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/stats.hpp"

namespace perfbench {
namespace {

using qross::obs::EventKind;
using qross::obs::TraceEvent;

/// A request's wire time above this is a stall, not transfer: loopback
/// moves a result frame in tens of microseconds.
constexpr double kStallMs = 10.0;

double pct(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : qross::quantile(values, q);
}

double per(double amount, double count) {
  return count > 0.0 ? amount / count : 0.0;
}

bool named(const TraceEvent& event, const char* name) {
  return event.kind == EventKind::span && std::strcmp(event.name, name) == 0;
}

/// Client-side spans that bracket a whole request: they are the
/// measurement itself, so they never count as covering it.
bool is_request_wait(const TraceEvent& event) {
  return named(event, "client_wait") || named(event, "client_tune_wait");
}

/// Length of the union of [begin, end) intervals, clipped to [lo, hi).
double covered_ns(std::vector<std::pair<double, double>> spans, double lo,
                  double hi) {
  std::sort(spans.begin(), spans.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [begin, end] : spans) {
    begin = std::max(begin, reach);
    end = std::min(end, hi);
    if (end > begin) {
      covered += end - begin;
      reach = end;
    }
  }
  return covered;
}

}  // namespace

std::vector<Metric> layer_metrics(const Window& untraced, const Window& traced,
                                  const TraceCapture& trace,
                                  const KernelShape& kernel, bool sessions) {
  const auto since_epoch_ns = [&](Clock::time_point tp) {
    return std::chrono::duration<double, std::nano>(tp - trace.epoch).count();
  };

  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> by_trace;
  std::vector<double> decode_us, encode_us, flush_us, queue_ms, kernel_ms,
      journal_us;
  double kernel_s = 0.0;
  for (const auto& event : trace.events) {
    if (event.kind != EventKind::span) continue;
    if (event.a1 != 0) by_trace[event.a1].push_back(&event);
    const double dur_ms = static_cast<double>(event.dur_ns) / 1e6;
    if (named(event, "frame_decode")) decode_us.push_back(dur_ms * 1e3);
    if (named(event, "frame_encode")) encode_us.push_back(dur_ms * 1e3);
    if (named(event, "result_flush") || named(event, "tune_result_flush")) {
      flush_us.push_back(dur_ms * 1e3);
    }
    if (named(event, "queue")) queue_ms.push_back(dur_ms);
    if (named(event, "kernel")) {
      kernel_ms.push_back(dur_ms);
      kernel_s += dur_ms / 1e3;
    }
    if (named(event, "journal_append")) journal_us.push_back(dur_ms * 1e3);
  }

  std::vector<double> wire_ms, submit_us, run_ms, probe_ms, self_ms,
      unattributed_ms;
  double stalled = 0.0, bytes = 0.0, solver_calls = 0.0;
  for (const Request& request : traced.requests) {
    const double latency = ms_between(request.submit_begin, request.observed);
    const double wire = latency - request.wait_ms - request.run_ms;
    wire_ms.push_back(wire);
    if (wire > kStallMs) stalled += 1.0;
    submit_us.push_back(ms_between(request.submit_begin, request.submit_end) *
                        1e3);
    // A cache hit reports run_ms 0: no kernel ran for it.
    if (!sessions && request.run_ms > 0.0) run_ms.push_back(request.run_ms);
    bytes += static_cast<double>(request.wire_bytes);
    solver_calls += static_cast<double>(request.solver_calls);

    const double lo = since_epoch_ns(request.submit_begin);
    const double hi = since_epoch_ns(request.observed);
    std::vector<std::pair<double, double>> spans;
    double probe = 0.0;
    if (const auto it = by_trace.find(request.trace_id); it != by_trace.end()) {
      for (const TraceEvent* event : it->second) {
        if (is_request_wait(*event)) continue;
        const auto begin = static_cast<double>(event->ts_ns);
        spans.emplace_back(begin, begin + static_cast<double>(event->dur_ns));
        if (named(*event, "queue") || named(*event, "kernel")) {
          probe += static_cast<double>(event->dur_ns) / 1e6;
        }
      }
    }
    unattributed_ms.push_back(latency - covered_ns(spans, lo, hi) / 1e6);
    if (sessions) {
      probe_ms.push_back(probe);
      self_ms.push_back(latency - probe);
    }
  }
  // Probe results never reach the client, so on tune_remote the kernel
  // spans stand in for ResultFrame::run_ms.
  if (sessions) run_ms = kernel_ms;

  const double ops = static_cast<double>(traced.attempted);
  const double requests = static_cast<double>(traced.requests.size());
  const auto& s0 = traced.service_before;
  const auto& s1 = traced.service_after;
  const auto& n0 = traced.server_before;
  const auto& n1 = traced.server_after;
  const auto& g0 = traced.tune_before.surrogate;
  const auto& g1 = traced.tune_after.surrogate;
  const double frames =
      static_cast<double>((n1.frames_received - n0.frames_received) +
                          (n1.frames_sent - n0.frames_sent));
  const double submitted = static_cast<double>(s1.submitted - s0.submitted);
  const double sessions_done = sessions ? requests : 0.0;
  const double rows = static_cast<double>(g1.rows - g0.rows);
  const double overhead =
      untraced.throughput() > 0.0
          ? (untraced.throughput() - traced.throughput()) /
                untraced.throughput() * 100.0
          : 0.0;

  return {
      {"net.wire_ms_p50", pct(wire_ms, 0.5), "ms"},
      {"net.wire_ms_p90", pct(wire_ms, 0.9), "ms"},
      {"net.stalled_jobs", stalled, "count"},
      {"net.submit_us_p50", pct(submit_us, 0.5), "us"},
      {"net.frame_decode_us_p50", pct(decode_us, 0.5), "us"},
      {"net.frame_encode_us_p50", pct(encode_us, 0.5), "us"},
      {"net.result_flush_us_p50", pct(flush_us, 0.5), "us"},
      {"net.bytes_per_job", per(bytes, requests), "B"},
      {"net.frames_per_job", per(frames, requests), "count"},
      {"service.queue_wait_ms_p50", pct(queue_ms, 0.5), "ms"},
      {"service.queue_wait_ms_p90", pct(queue_ms, 0.9), "ms"},
      {"service.cache_hit_ratio",
       per(static_cast<double>(s1.cache_hits - s0.cache_hits), submitted),
       "ratio"},
      {"service.solver_invocations_per_op",
       per(static_cast<double>(s1.solver_invocations - s0.solver_invocations),
           ops),
       "count"},
      {"service.coalesced", static_cast<double>(s1.coalesced - s0.coalesced),
       "count"},
      {"solvers.run_ms_p50", pct(run_ms, 0.5), "ms"},
      {"solvers.run_ms_p90", pct(run_ms, 0.9), "ms"},
      {"solvers.kernel_span_ms_p50", pct(kernel_ms, 0.5), "ms"},
      {"solvers.flip_proposals_per_s",
       per(static_cast<double>(kernel_ms.size()) * kernel.flip_proposals(),
           kernel_s),
       "1/s"},
      {"io.journal_append_us_p50", pct(journal_us, 0.5), "us"},
      {"io.journal_bytes_per_job",
       per(static_cast<double>(traced.journal_bytes), requests), "B"},
      {"surrogate.rows_per_session", per(rows, sessions_done), "count"},
      {"surrogate.passes_per_session",
       per(static_cast<double>(g1.passes - g0.passes), sessions_done),
       "count"},
      {"surrogate.combined_row_share",
       per(static_cast<double>(g1.combined_rows - g0.combined_rows), rows),
       "ratio"},
      {"surrogate.max_rows_per_pass", static_cast<double>(g1.max_rows_per_pass),
       "count"},
      {"qross.probe_ms_p50", pct(probe_ms, 0.5), "ms"},
      {"qross.self_ms_p50", pct(self_ms, 0.5), "ms"},
      {"qross.solver_calls_per_session", per(solver_calls, sessions_done),
       "count"},
      {"obs.trace_overhead_pct", overhead, "%"},
      {"obs.events_per_op",
       per(static_cast<double>(trace.events.size()), ops), "count"},
      {"obs.events_evicted", static_cast<double>(trace.evicted), "count"},
      {"obs.unattributed_ms_p50", pct(unattributed_ms, 0.5), "ms"},
  };
}

}  // namespace perfbench
