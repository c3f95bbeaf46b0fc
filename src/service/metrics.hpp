#pragma once

// Service observability: a point-in-time ServiceMetrics snapshot, built from
// the service's obs::Registry, plus the trailing completion-rate window.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qross::service {

/// Lifetime latency summary read from a registry histogram: `count` is
/// exact; the percentiles are bucket estimates (obs::Histogram::quantile),
/// the same numbers a Prometheus histogram_quantile over the scrape gives.
struct LatencyPercentiles {
  std::size_t count = 0;  ///< samples ever recorded
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

/// Per-client view of the fair-share scheduler: how much work one client id
/// has in the system, how it is weighted, and how often admission control
/// turned it away.  Clients appear on first submission; idle rows are
/// retired once the table would exceed ServiceConfig::max_client_rows, so
/// endless one-shot connection ids cannot grow it (or the Metrics frame)
/// without bound — service-wide counters are unaffected by retirement.
struct ClientSchedulerMetrics {
  std::string client_id;
  double weight = 1.0;
  std::size_t queued = 0;    ///< this client's jobs currently waiting
  std::size_t inflight = 0;  ///< this client's non-terminal jobs
  std::uint64_t submitted = 0;   ///< admitted submissions (rejections excluded)
  std::uint64_t completed = 0;   ///< jobs that reached any terminal state
  std::uint64_t dispatched = 0;  ///< executions started with this client as creator
  std::uint64_t rejected_inflight = 0;  ///< submits refused: max_inflight_per_client
  std::uint64_t rejected_queued = 0;    ///< submits refused: max_queued_per_client
};

/// One consistent snapshot of the service, taken under the service lock.
struct ServiceMetrics {
  std::size_t workers = 0;

  // Instantaneous state.
  std::size_t queue_depth = 0;  ///< executions waiting for a worker
  std::size_t running = 0;      ///< executions inside a solver kernel

  // Job counters (monotonic).
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< jobs that reached `done`
  std::size_t cancelled = 0;
  std::size_t expired = 0;
  std::size_t failed = 0;
  std::size_t coalesced = 0;  ///< jobs attached to an in-flight execution
  std::size_t solver_invocations = 0;  ///< actual kernel executions started

  // Result-cache counters (monotonic) + current size.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::size_t cache_size = 0;

  // Persistent-store counters (all 0 unless ServiceConfig::cache_path set).
  /// Entries RETAINED from disk at start (a snapshot larger than
  /// cache_capacity warm-fills only the newest entries that fit).
  std::size_t cache_loaded = 0;
  /// Entries appended to the on-disk journal.  Lags job completion by the
  /// append I/O (journalling runs after completion, outside the service
  /// lock), so a snapshot taken right after wait() may be one short of the
  /// eventual count.
  std::size_t cache_stored = 0;
  std::size_t cache_load_skipped = 0;  ///< corrupt/foreign records skipped

  /// Submissions refused by per-client admission control (sum of the
  /// per-client rejected_* counters).  Rejected submissions are NOT counted
  /// in `submitted`.
  std::uint64_t admission_rejected = 0;

  double uptime_seconds = 0.0;
  double jobs_per_second = 0.0;  ///< completed / uptime (lifetime average)
  /// Completions per second over the trailing ~60 s window — the number to
  /// watch on a long-lived daemon, where the lifetime average above goes
  /// stale.  Appended to the Metrics frame (append-only within protocol v1).
  double recent_jobs_per_second = 0.0;

  LatencyPercentiles queue_wait;  ///< submit → execution start (ms)
  LatencyPercentiles run;         ///< execution start → kernel exit (ms)

  /// One row per client id ever admitted or rejected, sorted by id.
  std::vector<ClientSchedulerMetrics> clients;

  /// Dispatch arm of the replica-block evaluation core ("avx2"/"scalar"),
  /// as resolved by qubo::active_simd_kind() at snapshot time — what a
  /// fleet operator reads to confirm which kernel a daemon actually runs.
  std::string simd_kernel;
};

/// Event rate over a trailing window of one-second buckets.  O(1) record,
/// O(window) rate; time is passed in explicitly so tests can drive it with
/// synthetic clocks.  Not internally synchronised (lives under the service
/// lock).
class SlidingWindowRate {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SlidingWindowRate(Clock::time_point origin,
                             std::size_t window_seconds = 60);

  void record(Clock::time_point now);
  /// Events/sec over the trailing window.  While the process is younger than
  /// the window, divides by elapsed time (floored at 1 s) so early rates are
  /// not diluted by seconds that never happened.
  double rate(Clock::time_point now);

 private:
  void advance(Clock::time_point now);
  std::int64_t seconds_since_origin(Clock::time_point now) const;

  Clock::time_point origin_;
  std::vector<std::uint64_t> buckets_;
  std::int64_t current_sec_ = 0;  ///< second index of the newest bucket
};

}  // namespace qross::service
