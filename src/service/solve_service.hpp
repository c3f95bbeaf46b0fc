#pragma once

// SolveService — the asynchronous front door above a solver call.
//
// Everything below this layer is one blocking `solve()`; everything a
// serving system needs *around* that call lives here:
//
//   * a worker pool (common/thread_pool) executing jobs concurrently;
//   * a priority + deadline aware queue: higher priority runs first, and a
//     job whose deadline has already passed when a worker picks it up
//     completes as `expired` WITHOUT invoking the solver.  Within one
//     priority band, ready work is divided between client ids by deficit
//     round robin (weighted; FIFO per client), so arrival order alone
//     cannot let one flooding submitter starve the rest; per-client
//     admission quotas bound how much any client may buffer at all;
//   * cooperative cancellation: each execution owns a StopToken threaded
//     into the kernel, so cancel() and mid-run deadline expiry take effect
//     within one sweep, returning the partial batch;
//   * an LRU result cache keyed by the canonical job fingerprint
//     (solver identity + model structure/weights + normalised options) —
//     a hit completes the job immediately with the original, bit-identical
//     batch; with ServiceConfig::cache_path the cache persists across
//     processes (io/CacheStore journal + snapshot, warm-filled at start);
//   * request coalescing: concurrent submissions with equal fingerprints
//     share one execution; N identical submissions cost one solver call and
//     produce N aliased results;
//   * one obs::Registry per service, the only store of every counted event
//     (Prometheus exposition via registry()), and a ServiceMetrics snapshot
//     read from it: queue depth, throughput, per-phase latency percentiles,
//     cache and job counters.
//
// Concurrency notes.  One mutex (in ServiceCore) guards the queue, the
// in-flight index and the cache; the counters are registry atomics, bumped
// under that mutex wherever metrics() must see them consistently.  Each job
// additionally has a small mutex + condvar for its own status (lock order:
// core before job).
// Handles may outlive the service: the destructor drives every job to a
// terminal state (queued → cancelled, running → stop requested and joined)
// before the workers are torn down.  Do NOT call a blocking JobHandle
// method from inside a solver running on this service's own pool — that is
// the classic worker-waits-for-worker deadlock.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/thread_pool.hpp"
#include "qubo/model.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "solvers/solver.hpp"

namespace qross::obs {
class Registry;
}  // namespace qross::obs

namespace qross::service {

struct ServiceConfig {
  /// Concurrent solver executions; 0 = all hardware threads.  Jobs may
  /// additionally fan replicas out via SolveOptions::num_threads.
  std::size_t num_workers = 2;
  /// LRU result-cache entries; 0 disables caching (coalescing stays on).
  std::size_t cache_capacity = 256;
  /// When non-empty, the result cache persists here across runs
  /// (io/CacheStore): entries are warm-filled at construction, journaled as
  /// executions complete, and compacted into a versioned snapshot by the
  /// destructor or an explicit flush_cache().  The canonical fingerprint is
  /// stable across processes, so a second run on the same file replays
  /// bit-identical batches with zero solver invocations.  Corrupt,
  /// truncated, or future-version files degrade to a cold cache — never an
  /// error (see ServiceMetrics::cache_load_skipped).  Ignored when
  /// cache_capacity is 0 (no cache to persist).
  std::string cache_path;
  /// Snapshot eviction budgets applied at compaction (newest entries kept).
  std::size_t cache_file_max_entries = 4096;
  std::uint64_t cache_file_max_bytes = 64ull * 1024 * 1024;

  // --- admission control / fair share ---------------------------------------
  //
  // Jobs are attributed to the client id in SubmitOptions (empty = one
  // shared anonymous client).  Admission quotas apply per client id and are
  // enforced at submit() with a typed AdmissionError; the fair-share
  // scheduler divides each priority band between clients by weight, so one
  // flooding submitter can no longer starve the rest through FIFO arrival
  // order alone (priority still wins globally).

  /// Max non-terminal jobs one client may have in the service (queued +
  /// running + coalesced); 0 = unlimited.  Cache hits are exempt: they
  /// complete inside submit() without occupying a worker or queue slot,
  /// and the quotas bound resource occupancy, not free work.
  std::size_t max_inflight_per_client = 0;
  /// Max jobs one client may have waiting in the queue; 0 = unlimited.
  /// Checked only for submissions that would actually queue — cache hits
  /// and joins onto an already-running execution are not queued work.
  std::size_t max_queued_per_client = 0;
  /// Deficit-round-robin weight for clients without an explicit entry.  A
  /// weight-2 client is offered two dispatches per scheduling cycle for
  /// every one a weight-1 client gets.  Clamped to [0.01, 100].
  double default_client_weight = 1.0;
  /// Explicit per-client weights (same clamp).
  std::map<std::string, double> client_weights;
  /// When false, client ids still gate admission quotas and metrics but the
  /// scheduler degrades to plain FIFO within a priority band (the pre-PR-5
  /// behaviour) — kept as a switch so the fairness bench can measure the
  /// difference.  With one client (or none named) the two are identical.
  bool fair_share = true;
  /// Bound on retained per-client bookkeeping rows: when a NEW client id
  /// would exceed it, just enough idle rows (inflight == queued == 0) are
  /// retired — a daemon serving endless one-shot "conn-N" clients must not
  /// grow its metrics table forever.  A retired client's jobs stay in the
  /// service-wide monotonic counters; resubmitting under the same id
  /// simply starts a fresh row.  Rows with live work and clients named in
  /// `client_weights` (operators correlate their counters across polls)
  /// are never retired.  0 = unbounded.
  std::size_t max_client_rows = 1024;
};

struct SubmitOptions {
  /// Higher runs first; FIFO within equal priorities.  Joining an already
  /// queued equivalent execution with a higher priority promotes it.
  int priority = 0;
  /// Absolute deadline, enforced per job.  Expired-while-queued jobs never
  /// start — there is no timer thread, so the `expired` transition is
  /// observed when a worker pops the execution, not at the deadline
  /// instant.  Mid-run (checked at every sweep tick) a due job is detached
  /// from its execution as `expired` with no batch — the kernel keeps
  /// running for the remaining interested jobs; only when the due job is
  /// the last interested one is the kernel stop-signalled, completing it
  /// as `expired` with the partial batch.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Skip both the cache lookup/store and coalescing for this job (e.g.
  /// fresh statistics wanted despite an equal fingerprint).
  bool bypass_cache = false;
  /// Who this job is accounted to for admission quotas and fair-share
  /// scheduling.  Empty = the shared anonymous client (all such jobs are
  /// one client for both purposes).  The network server fills this from the
  /// connection's identity.
  std::string client_id;
  /// Caller-supplied trace correlation id (0 = none).  Stamped on every
  /// obs::TraceRecorder event of this job's lifecycle, so a remote client
  /// that sets it can stitch server-side spans into its own trace.  Purely
  /// observational — no effect on scheduling, coalescing, or caching.
  std::uint64_t trace_id = 0;
};

/// Why submit() refused a job without enqueuing it.
enum class AdmissionErrorKind {
  /// The service is shutting down / draining.  Retryable: another instance
  /// (e.g. a restarted daemon) may accept the same job verbatim.
  shutting_down,
  /// The client is at max_inflight_per_client.  Permanent for THIS job at
  /// this moment — resubmitting the identical job without first letting
  /// some of the client's work finish can never succeed.
  inflight_quota,
  /// The client is at max_queued_per_client (same permanence as above).
  queued_quota,
  /// The TuneService is at its concurrent-session limit.  Retryable:
  /// sessions complete on their own, so the same submission can succeed
  /// later without the client changing anything (the wire maps this to the
  /// retryable server-full code).
  session_quota,
};

const char* to_string(AdmissionErrorKind kind);

/// Thrown by SolveService::submit() when a job is refused at the door.
/// Derives from std::invalid_argument so pre-admission-control callers that
/// caught the shutdown precondition keep working unchanged.
class AdmissionError : public std::invalid_argument {
 public:
  AdmissionError(AdmissionErrorKind kind, const std::string& message)
      : std::invalid_argument(message), kind_(kind) {}

  AdmissionErrorKind kind() const { return kind_; }
  /// True when retrying the same submission later can succeed without the
  /// caller changing anything (shutdown/drain: a fresh service instance may
  /// take it; session quota: other sessions finish on their own).  Per-client
  /// quota violations are NOT retryable until the client's own earlier jobs
  /// finish.
  bool retryable() const {
    return kind_ == AdmissionErrorKind::shutting_down ||
           kind_ == AdmissionErrorKind::session_quota;
  }

 private:
  AdmissionErrorKind kind_;
};

namespace detail {
struct ServiceCore;
}  // namespace detail

class SolveService {
 public:
  explicit SolveService(ServiceConfig config = {});
  /// Cancels all queued jobs, stop-signals running ones, waits for the
  /// workers to drain, and only then returns; every handle is terminal
  /// afterwards.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  std::size_t num_workers() const { return pool_.size(); }

  /// Enqueues one solve.  The model is copied only when a new execution is
  /// actually created — cache hits and coalesced submissions never pay the
  /// O(n²) copy.  The returned handle observes and controls the job.
  /// A live options.stop token acts as this job's cancel(); it is bridged
  /// for jobs present when their execution starts, but NOT for a job that
  /// coalesces onto an already-running execution — cancel such a job via
  /// its handle (ServiceSolver does exactly that by polling).  Throws
  /// AdmissionError (a std::invalid_argument) after shutdown() or when the
  /// client is over an admission quota — see AdmissionErrorKind.
  JobHandle submit(solvers::SolverPtr solver, const qubo::QuboModel& model,
                   solvers::SolveOptions options, SubmitOptions submit = {});

  ServiceMetrics metrics() const;

  /// This service's metrics registry: every counter, gauge and histogram
  /// behind metrics(), plus instruments layered on top of the service (the
  /// network server's frame counters).  Render it for a Prometheus scrape.
  obs::Registry& registry();

  /// Explicit persistence flush: compacts the on-disk store (journal merged
  /// into the snapshot, eviction budget applied).  Safe to call while
  /// serving — completed results appended concurrently land in a fresh
  /// journal and survive.  Returns the snapshot entry count, or 0 when no
  /// cache_path is configured.  The destructor flushes automatically.
  std::size_t flush_cache();

  /// Idempotent early teardown: rejects further submissions, cancels every
  /// queued job and stop-signals running ones.  Does not wait for the
  /// workers (the destructor does).
  void shutdown();

 private:
  std::shared_ptr<detail::ServiceCore> core_;
  // Declared after core_ so it is destroyed first: the destructor drains
  // pending worker tasks (which hold the core via shared_ptr) and joins.
  ThreadPool pool_;
};

}  // namespace qross::service
