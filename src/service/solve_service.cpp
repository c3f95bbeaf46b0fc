#include "service/solve_service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_annotations.hpp"
#include "io/cache_store.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "qubo/simd.hpp"
#include "service/fingerprint.hpp"
#include "service/result_cache.hpp"

namespace qross::service {

using Clock = std::chrono::steady_clock;

namespace {

// Clamped at zero: a job coalescing onto an already-running execution
// "waited" a negative interval relative to that execution's start.
double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::max(0.0,
                  std::chrono::duration<double, std::milli>(to - from).count());
}

std::int64_t to_ns(Clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::queued: return "queued";
    case JobStatus::running: return "running";
    case JobStatus::done: return "done";
    case JobStatus::cancelled: return "cancelled";
    case JobStatus::expired: return "expired";
    case JobStatus::failed: return "failed";
  }
  return "?";
}

bool is_terminal(JobStatus status) {
  return status == JobStatus::done || status == JobStatus::cancelled ||
         status == JobStatus::expired || status == JobStatus::failed;
}

const char* to_string(AdmissionErrorKind kind) {
  switch (kind) {
    case AdmissionErrorKind::shutting_down: return "shutting-down";
    case AdmissionErrorKind::inflight_quota: return "inflight-quota";
    case AdmissionErrorKind::queued_quota: return "queued-quota";
    case AdmissionErrorKind::session_quota: return "session-quota";
  }
  return "?";
}

namespace detail {

struct ExecState;

// One submission.  `m`/`cv` guard only this job's status/result; everything
// else is written once at submit time (under the core lock) and read-only
// afterwards.  Lock order: ServiceCore::m before JobState::m, never the
// reverse — JobHandle accessors take only the job lock.
struct JobState {
  std::uint64_t id = 0;
  int priority = 0;
  std::optional<Clock::time_point> deadline;
  /// Who this job is accounted to (admission quotas, fair share).  Written
  /// once at submit; immutable afterwards.
  std::string client_id;
  /// Client-supplied trace id (0 = none), stamped on every trace event of
  /// this job's lifecycle so remote submissions stitch into server spans.
  std::uint64_t trace_id = 0;
  /// True while this job is counted in its client's queued-job tally.
  /// Guarded by ServiceCore::m (NOT the job mutex).
  bool counted_queued = false;
  /// The submitter's own StopToken, captured before the rest of its options
  /// are discarded on coalesce — signalling it cancels THIS job.
  solvers::StopToken stop;
  Clock::time_point submitted_at;
  std::weak_ptr<ServiceCore> core;
  std::weak_ptr<ExecState> exec;

  mutable Mutex m;
  mutable std::condition_variable cv;
  JobStatus status GUARDED_BY(m) = JobStatus::queued;
  /// cancelled while running; completes on exit
  bool wants_cancel GUARDED_BY(m) = false;
  JobResult result GUARDED_BY(m);
  /// One-shot completion hook (JobHandle::notify); fired by finish_job after
  /// the terminal transition, outside this job's lock but possibly inside
  /// the service lock — see the notify() contract in job.hpp.
  std::function<void()> on_terminal GUARDED_BY(m);
};

// One solver execution, shared by every job whose fingerprint coalesced
// onto it.  All fields are guarded by ServiceCore::m except the stop token
// and `deadline_hit`, which the kernel's sweep callback touches lock-free.
// (The guard is another object's mutex reached through a weak_ptr, which
// thread-safety annotations cannot express as a GUARDED_BY path — the
// invariant is enforced by ServiceCore's REQUIRES(m) helpers instead.)
struct ExecState {
  Fingerprint key;
  solvers::SolverPtr solver;
  qubo::QuboModel model;
  solvers::SolveOptions options;
  bool cacheable = true;
  int priority = 0;
  /// The creator's client id — the scheduling lane this execution waits in
  /// (coalesced joiners ride along regardless of their own client).
  std::string client_id;
  /// The creator job's id / trace id, for trace events emitted from the
  /// kernel and journal paths where only the execution is at hand.
  std::uint64_t creator_job_id = 0;
  std::uint64_t creator_trace_id = 0;

  enum class Phase { queued, running, finished };
  Phase phase = Phase::queued;
  bool dead = false;  // no interested jobs remain; skipped at pop
  solvers::StopToken stop = solvers::StopToken::create();
  std::atomic<bool> deadline_hit{false};
  /// (deadline, job) entries the running execution's watchdog polls,
  /// ascending by deadline.  Guarded by ServiceCore::m.  Lives on the
  /// execution (not the run_one frame) so a job with a tighter deadline
  /// coalescing onto an already-running execution can re-arm the watchdog.
  std::vector<std::pair<Clock::time_point, std::shared_ptr<JobState>>> watch;
  /// Earliest pending per-job deadline (ns since the steady epoch), kept in
  /// an atomic so concurrent replica threads can run the per-sweep "is
  /// anything due?" check lock-free; the watch list itself is only touched
  /// under ServiceCore::m.  INT64_MAX = nothing watched.
  std::atomic<std::int64_t> next_deadline_ns{
      std::numeric_limits<std::int64_t>::max()};
  Clock::time_point started_at;
  std::vector<std::shared_ptr<JobState>> subscribers;
};

struct ServiceCore {
  explicit ServiceCore(const ServiceConfig& cfg)
      : config(cfg),
        cache(cfg.cache_capacity),
        started_at(Clock::now()),
        recent_rate(started_at) {
    // Metric instruments are resolved once here (a mutex + map lookup) and
    // cached as raw pointers so hot paths only touch atomics.  The registry
    // belongs to this service and is the only store of what it counts:
    // metrics() reads these instruments back rather than keeping copies.
    obs::Registry& reg = registry;
    ctr_submitted = reg.counter("qross_jobs_submitted_total",
                                "Admitted job submissions");
    ctr_done = reg.counter("qross_jobs_done_total",
                           "Jobs completed successfully");
    ctr_cancelled = reg.counter("qross_jobs_cancelled_total",
                                "Jobs cancelled");
    ctr_expired = reg.counter("qross_jobs_expired_total",
                              "Jobs expired at or past their deadline");
    ctr_failed = reg.counter("qross_jobs_failed_total",
                             "Jobs whose solver threw");
    ctr_coalesced = reg.counter(
        "qross_jobs_coalesced_total",
        "Submissions attached to an in-flight equivalent execution");
    ctr_dispatched = reg.counter("qross_dispatches_total",
                                 "Solver kernel executions started");
    ctr_cache_hits = reg.counter("qross_cache_hits_total",
                                 "Result-cache hits at submit");
    ctr_cache_misses = reg.counter("qross_cache_misses_total",
                                   "Result-cache misses at submit");
    ctr_admission_rejected = reg.counter(
        "qross_admission_rejected_total",
        "Submissions refused by per-client admission control");
    ctr_sweeps = reg.counter("qross_sweeps_total",
                             "Replica-sweep progress ticks observed");
    ctr_journal_appends = reg.counter(
        "qross_journal_appends_total",
        "Results appended to the persistent cache journal");
    g_queue_depth = reg.gauge("qross_queue_depth",
                              "Executions waiting for a worker");
    g_running = reg.gauge("qross_jobs_running",
                          "Executions inside a solver kernel");
    const std::vector<double> latency_ms = {0.5,  1,    2.5,  5,    10,  25,
                                            50,   100,  250,  500,  1000,
                                            2500, 5000, 10000};
    h_queue_wait = reg.histogram("qross_queue_wait_ms", latency_ms,
                                 "Submit to execution start, milliseconds");
    h_run = reg.histogram("qross_run_ms", latency_ms,
                          "Execution start to kernel exit, milliseconds");
    h_journal = reg.histogram("qross_journal_append_ms",
                              {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100},
                              "Journal append latency, milliseconds");
    // cache_capacity == 0 disables persistence along with the cache:
    // journaling results that could never be served back would be pure
    // disk overhead.
    if (!config.cache_path.empty() && cache.enabled()) {
      io::CacheStoreConfig store_config;
      store_config.path = config.cache_path;
      store_config.max_entries = config.cache_file_max_entries;
      store_config.max_bytes = config.cache_file_max_bytes;
      store = std::make_unique<io::CacheStore>(store_config);
      // Warm fill, oldest to newest: put() keeps the newest duplicate and
      // leaves the most recent entries most-recently-used in the LRU.
      store->load([this](io::CacheEntry entry) { warm_fill(std::move(entry)); });
      // Report what the LRU RETAINED, not what the file delivered: a
      // snapshot larger than cache_capacity warm-fills only the newest
      // entries, and claiming more would promise hits that cannot happen.
      cache_loaded = cache.size();
      cache_load_skipped = store->load_skipped();
      // Warm-fill overflow churns the eviction counter; runtime metrics
      // should count serving-time evictions only.
      startup_evictions = cache.evictions();
    }
  }

  // Runs after the worker pool joined (SolveService declares the pool after
  // core_), so every completed execution's append has landed: the final
  // compaction folds the whole run's journal into the snapshot.  A run
  // that appended nothing (fully disk-warm replay) skips the rewrite — a
  // leftover journal still loads fine and is folded by the next run that
  // writes, or by an explicit flush/`qross cache compact`.
  ~ServiceCore() {
    if (store && ctr_journal_appends->value() > 0) compact();
  }

  /// The one place the service compacts its store, so it is also where
  /// compactions are counted.  Registered on first use, so a scrape shows
  /// the family only once something was compacted.
  std::size_t compact() {
    registry
        .counter("qross_cache_compactions_total",
                 "CacheStore journal-into-snapshot compactions")
        ->inc();
    return store->compact();
  }

  /// Warm-fill callback target.  It runs inside the constructor, before any
  /// other thread can see this object — but it is reached through a lambda,
  /// which the thread-safety analysis treats as an ordinary unlocked
  /// function (the constructor exemption does not extend into lambdas), so
  /// the check is opted out for this one line.
  void warm_fill(io::CacheEntry entry) NO_THREAD_SAFETY_ANALYSIS {
    cache.put(entry.key, std::move(entry.batch));
  }

  ServiceConfig config;

  mutable Mutex m;
  bool shutting_down GUARDED_BY(m) = false;
  std::uint64_t next_job_id GUARDED_BY(m) = 1;

  // --- fair-share ready queue ----------------------------------------------
  //
  // Priority bands (highest first); inside a band, one FIFO lane per
  // scheduling key (the client id, or one shared key with fair_share off)
  // drained by deficit round robin: on each ring visit a lane is granted
  // its weight in credits and serves one execution per credit before the
  // ring advances.  Entries are popped lazily: priority promotion pushes a
  // duplicate entry and cancellation just marks the execution dead, so the
  // pop loop skips anything no longer queued/alive (or whose band no longer
  // matches the execution's priority) instead of erasing mid-queue.

  struct ReadyEntry {
    int priority = 0;  ///< band at push time; != exec->priority means stale
    std::shared_ptr<ExecState> exec;
  };
  struct ClientLane {
    std::deque<ReadyEntry> ready;
    double credits = 0.0;
    bool granted = false;  ///< weight already granted on this ring visit
    bool in_ring = false;
  };
  struct Band {
    std::unordered_map<std::string, ClientLane> lanes;
    std::vector<std::string> ring;  ///< keys with entries, round-robin order
    std::size_t rr = 0;
  };
  std::map<int, Band, std::greater<int>> bands GUARDED_BY(m);

  /// Per-client admission + scheduling bookkeeping.  Ordered so the metrics
  /// snapshot lists clients deterministically.
  struct ClientState {
    double weight = 1.0;
    std::size_t queued_jobs = 0;
    std::size_t inflight_jobs = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t rejected_inflight = 0;
    std::uint64_t rejected_queued = 0;
  };
  std::map<std::string, ClientState> clients GUARDED_BY(m);

  static double clamp_weight(double weight) {
    return std::min(100.0, std::max(0.01, weight));
  }

  // config is immutable after construction, so this needs no lock.
  double configured_weight(const std::string& id) const {
    const auto it = config.client_weights.find(id);
    return clamp_weight(it != config.client_weights.end()
                            ? it->second
                            : config.default_client_weight);
  }

  ClientState& client_state(const std::string& id) REQUIRES(m) {
    auto it = clients.find(id);
    if (it != clients.end()) return it->second;
    if (config.max_client_rows > 0 &&
        clients.size() >= config.max_client_rows) {
      // Retire idle rows so endless one-shot client ids (the anonymous
      // conn-N case) cannot grow the table forever — but only as many as
      // needed, and never a row with live work (quota state must not be
      // swept away) or an explicitly-weighted tenant (operators correlate
      // its counters across polls).
      for (auto victim = clients.begin();
           victim != clients.end() &&
           clients.size() >= config.max_client_rows;) {
        const bool idle = victim->second.inflight_jobs == 0 &&
                          victim->second.queued_jobs == 0;
        if (idle && !config.client_weights.contains(victim->first)) {
          victim = clients.erase(victim);
        } else {
          ++victim;
        }
      }
    }
    it = clients.try_emplace(id).first;
    it->second.weight = configured_weight(id);
    return it->second;
  }

  /// The scheduling lane an execution waits in.  With fair_share off every
  /// execution shares one lane, which reduces DRR to plain FIFO.
  std::string sched_key(const ExecState& exec) const {
    return config.fair_share ? exec.client_id : std::string();
  }

  /// Weight of a scheduling key WITHOUT materialising a ClientState (the
  /// shared fair_share-off key must not show up as a metrics row).
  double lane_weight(const std::string& key) const REQUIRES(m) {
    const auto it = clients.find(key);
    return it != clients.end() ? it->second.weight : configured_weight(key);
  }

  void push_ready(const std::shared_ptr<ExecState>& exec) REQUIRES(m) {
    Band& band = bands[exec->priority];
    const std::string key = sched_key(*exec);
    ClientLane& lane = band.lanes[key];
    lane.ready.push_back({exec->priority, exec});
    if (!lane.in_ring) {
      lane.in_ring = true;
      band.ring.push_back(key);
    }
  }

  /// Next live execution of one band under deficit round robin, or null
  /// when the band holds none.  Stale entries are dropped without consuming
  /// credit; a lane that empties resets its deficit (standard DRR).
  std::shared_ptr<ExecState> pop_from_band(Band& band) REQUIRES(m) {
    while (!band.ring.empty()) {
      if (band.rr >= band.ring.size()) band.rr = 0;
      const std::string key = band.ring[band.rr];
      ClientLane& lane = band.lanes[key];
      while (!lane.ready.empty()) {
        const auto& entry = lane.ready.front();
        if (entry.exec->dead ||
            entry.exec->phase != ExecState::Phase::queued ||
            entry.exec->priority != entry.priority) {
          lane.ready.pop_front();
        } else {
          break;
        }
      }
      if (lane.ready.empty()) {
        // Erase the lane outright, not just its ring slot: a saturated
        // band may never fully drain, and one-shot client ids must not
        // accumulate dead lanes for its lifetime.  Deficit reset on empty
        // comes free — a re-submitting client gets a fresh lane.
        band.lanes.erase(key);
        band.ring.erase(band.ring.begin() +
                        static_cast<std::ptrdiff_t>(band.rr));
        continue;  // rr now indexes the next key (wraps at the loop top)
      }
      if (!lane.granted) {
        lane.credits += lane_weight(key);
        lane.granted = true;
      }
      if (lane.credits < 1.0) {
        // A fractional-weight client sits out this circuit; the credit is
        // kept and tops up on the next visit.  Weights are clamped >= 0.01,
        // so some lane reaches a full credit within a bounded number of
        // circuits and the loop terminates.
        lane.granted = false;
        ++band.rr;
        continue;
      }
      lane.credits -= 1.0;
      auto exec = lane.ready.front().exec;
      lane.ready.pop_front();
      if (lane.ready.empty()) {
        band.lanes.erase(key);
        band.ring.erase(band.ring.begin() +
                        static_cast<std::ptrdiff_t>(band.rr));
      }
      return exec;
    }
    return nullptr;
  }

  /// Highest-priority live execution across all bands (priority wins
  /// globally; fairness applies within a band).  Drained bands are erased —
  /// which also resets their lanes' deficits, exactly DRR's empty-queue
  /// rule.
  std::shared_ptr<ExecState> pop_ready() REQUIRES(m) {
    for (auto it = bands.begin(); it != bands.end();) {
      if (auto exec = pop_from_band(it->second)) return exec;
      it = bands.erase(it);
    }
    return nullptr;
  }

  std::unordered_map<Fingerprint, std::shared_ptr<ExecState>, FingerprintHash>
      inflight GUARDED_BY(m);
  // Every execution currently inside a solver kernel — including
  // bypass_cache ones, which never appear in `inflight` — so shutdown()
  // can stop-signal them all.
  std::vector<std::shared_ptr<ExecState>> running_execs GUARDED_BY(m);
  ResultCache cache GUARDED_BY(m);
  /// Persistent backing of `cache` (null without cache_path).  Internally
  /// synchronised — appends and flushes run OUTSIDE `m`, so disk I/O never
  /// blocks submits or metrics.  The pointer itself is written once at
  /// construction and never reseated, so it is deliberately NOT guarded —
  /// keeping it readable on the journal path is the whole point.
  std::unique_ptr<io::CacheStore> store;
  std::size_t cache_loaded GUARDED_BY(m) = 0;
  std::size_t cache_load_skipped GUARDED_BY(m) = 0;
  std::size_t startup_evictions GUARDED_BY(m) = 0;
  Clock::time_point started_at;
  /// Trailing ~60 s completion rate.
  SlidingWindowRate recent_rate GUARDED_BY(m);

  // The service's own registry and the instruments resolved from it (see
  // the constructor).  Updated with atomics only — safe under or outside
  // `m`.  The queue-depth and running gauges are the store for those two
  // counts.
  obs::Registry registry;
  obs::Counter* ctr_submitted = nullptr;
  obs::Counter* ctr_done = nullptr;
  obs::Counter* ctr_cancelled = nullptr;
  obs::Counter* ctr_expired = nullptr;
  obs::Counter* ctr_failed = nullptr;
  obs::Counter* ctr_coalesced = nullptr;
  obs::Counter* ctr_dispatched = nullptr;
  obs::Counter* ctr_cache_hits = nullptr;
  obs::Counter* ctr_cache_misses = nullptr;
  obs::Counter* ctr_admission_rejected = nullptr;
  obs::Counter* ctr_sweeps = nullptr;
  obs::Counter* ctr_journal_appends = nullptr;
  obs::Gauge* g_queue_depth = nullptr;
  obs::Gauge* g_running = nullptr;
  obs::Histogram* h_queue_wait = nullptr;
  obs::Histogram* h_run = nullptr;
  obs::Histogram* h_journal = nullptr;

  /// Moves `job` to the terminal state in `result` (caller holds `m`).
  /// Returns false when the job already finished through another path.
  bool finish_job(const std::shared_ptr<JobState>& job, JobResult result)
      REQUIRES(m) {
    std::function<void()> hook;
    {
      MutexLock job_lock(job->m);
      if (is_terminal(job->status)) return false;
      h_queue_wait->observe(result.wait_ms);
      switch (result.status) {
        case JobStatus::done:
          recent_rate.record(Clock::now());
          ctr_done->inc();
          break;
        case JobStatus::cancelled: ctr_cancelled->inc(); break;
        case JobStatus::expired: ctr_expired->inc(); break;
        case JobStatus::failed: ctr_failed->inc(); break;
        default: QROSS_ASSERT_MSG(false, "completion with non-terminal status");
      }
      auto& tracer = obs::TraceRecorder::instance();
      if (tracer.enabled()) {
        const char* name = "job_done";
        switch (result.status) {
          case JobStatus::cancelled: name = "job_cancelled"; break;
          case JobStatus::expired: name = "job_expired"; break;
          case JobStatus::failed: name = "job_failed"; break;
          default: break;
        }
        tracer.record_instant(name, "service", job->id, job->trace_id);
      }
      job->status = result.status;
      job->result = std::move(result);
      job->cv.notify_all();
      hook = std::move(job->on_terminal);
      job->on_terminal = nullptr;
    }
    // Per-client accounting (all callers hold `m`): the job leaves the
    // inflight tally, and the queued tally if it never started.
    ClientState& client = client_state(job->client_id);
    if (client.inflight_jobs > 0) --client.inflight_jobs;
    ++client.completed;
    if (job->counted_queued) {
      job->counted_queued = false;
      if (client.queued_jobs > 0) --client.queued_jobs;
    }
    // Fired outside the job lock so a hook thread waking on the condvar can
    // take it immediately; the hook's signal-only contract (job.hpp) makes
    // running under the still-held service lock safe.
    if (hook) hook();
    return true;
  }

  bool job_live(const std::shared_ptr<JobState>& job) const {
    MutexLock job_lock(job->m);
    return !is_terminal(job->status);
  }

  bool job_wants_cancel(const std::shared_ptr<JobState>& job) const {
    MutexLock job_lock(job->m);
    return job->wants_cancel;
  }

  /// True while a subscriber of `exec` other than `job` still wants the
  /// result: it is live and not cancelling.  A job that leaves a running
  /// execution with such a follower only detaches; without one, the kernel
  /// is stop-signalled instead.
  bool others_interested(const ExecState& exec,
                         const std::shared_ptr<JobState>& job) const
      REQUIRES(m) {
    return std::ranges::any_of(exec.subscribers, [&](const auto& other) {
      return other != job && job_live(other) && !job_wants_cancel(other);
    });
  }

  void drop_inflight(const std::shared_ptr<ExecState>& exec) REQUIRES(m) {
    const auto it = inflight.find(exec->key);
    if (it != inflight.end() && it->second == exec) inflight.erase(it);
  }

  void cancel_job(const std::shared_ptr<JobState>& job) EXCLUDES(m);
  void run_one() EXCLUDES(m);

  /// Per-job stop tokens the running execution polls each sweep: a
  /// signalled token is that job's cancellation and is routed through
  /// cancel_job (once, via the `handled` latch), preserving the coalescing
  /// invariant.  Entries are immutable after construction; `handled` is the
  /// only mutated field and is atomic, so concurrent replica threads may
  /// poll freely.
  struct TokenWatchEntry {
    solvers::StopToken token;
    std::shared_ptr<JobState> job;
    std::shared_ptr<std::atomic<bool>> handled =
        std::make_shared<std::atomic<bool>>(false);
  };
  using TokenWatch = std::vector<TokenWatchEntry>;

  /// Handles every due entry of exec->watch: a job whose deadline passed
  /// mid-run is detached as `expired` (no batch — the kernel keeps running
  /// for the remaining jobs); when it is the last interested job, the
  /// kernel is stop-signalled instead and the completion path attaches the
  /// partial batch.  Updates exec->next_deadline_ns for the lock-free sweep
  /// check.
  void expire_due_jobs(ExecState* exec) EXCLUDES(m) {
    MutexLock lock(m);
    auto& watch = exec->watch;
    const auto now = Clock::now();
    while (!watch.empty() && watch.front().first <= now) {
      const auto job = watch.front().second;
      watch.erase(watch.begin());
      if (!job_live(job) || job_wants_cancel(job)) continue;
      if (others_interested(*exec, job)) {
        JobResult r;
        r.status = JobStatus::expired;
        r.coalesced = job != exec->subscribers.front();
        r.wait_ms = ms_between(job->submitted_at, exec->started_at);
        r.run_ms = ms_between(exec->started_at, now);
        finish_job(job, std::move(r));
      } else {
        exec->deadline_hit.store(true, std::memory_order_relaxed);
        exec->stop.request_stop();
      }
    }
    exec->next_deadline_ns.store(
        watch.empty() ? std::numeric_limits<std::int64_t>::max()
                      : to_ns(watch.front().first),
        std::memory_order_relaxed);
  }
};

void ServiceCore::cancel_job(const std::shared_ptr<JobState>& job) {
  MutexLock lock(m);
  if (!job_live(job)) return;
  const auto exec = job->exec.lock();
  if (!exec || exec->phase == ExecState::Phase::finished) {
    // Defensive: a live job should always have a live execution (completion
    // marks subscribers terminal under the lock we hold).
    JobResult r;
    r.status = JobStatus::cancelled;
    r.wait_ms = ms_between(job->submitted_at, Clock::now());
    finish_job(job, std::move(r));
    return;
  }
  if (exec->phase == ExecState::Phase::queued) {
    JobResult r;
    r.status = JobStatus::cancelled;
    r.wait_ms = ms_between(job->submitted_at, Clock::now());
    finish_job(job, std::move(r));
    bool any_live = false;
    for (const auto& other : exec->subscribers) {
      if (job_live(other)) {
        any_live = true;
        break;
      }
    }
    if (!any_live) {
      exec->dead = true;
      g_queue_depth->add(-1);
      drop_inflight(exec);
    }
    return;
  }
  // Running.  If other jobs still want the result, only detach this one;
  // the kernel is stopped when the last interested job cancels, and that
  // job collects the partial batch once the kernel exits within a sweep.
  if (others_interested(*exec, job)) {
    JobResult r;
    r.status = JobStatus::cancelled;
    // The execution creator (first subscriber) never counts as coalesced,
    // even when it detaches and leaves the execution to its followers.
    r.coalesced = job != exec->subscribers.front();
    r.wait_ms = ms_between(job->submitted_at, exec->started_at);
    finish_job(job, std::move(r));
  } else {
    {
      MutexLock job_lock(job->m);
      job->wants_cancel = true;
    }
    exec->stop.request_stop();
  }
}

void ServiceCore::run_one() {
  std::shared_ptr<ExecState> exec;
  const auto tokens = std::make_shared<TokenWatch>();
  {
    MutexLock lock(m);
    while (auto candidate = pop_ready()) {
      const auto now = Clock::now();
      // Deadline triage: jobs already past their deadline complete as
      // `expired` here — the solver is never invoked for them.  The rest
      // with deadlines go onto the mid-run watch list.
      bool any_live = false;
      for (const auto& job : candidate->subscribers) {
        if (!job_live(job)) continue;
        if (job->deadline && *job->deadline <= now) {
          JobResult r;
          r.status = JobStatus::expired;
          r.wait_ms = ms_between(job->submitted_at, now);
          finish_job(job, std::move(r));
          continue;
        }
        any_live = true;
        if (job->deadline) candidate->watch.emplace_back(*job->deadline, job);
        if (job->stop.stop_possible()) tokens->push_back({job->stop, job});
      }
      g_queue_depth->add(-1);
      if (!any_live) {
        candidate->dead = true;
        drop_inflight(candidate);
        candidate->watch.clear();
        tokens->clear();
        continue;
      }
      std::sort(candidate->watch.begin(), candidate->watch.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      if (!candidate->watch.empty()) {
        candidate->next_deadline_ns.store(to_ns(candidate->watch.front().first),
                                          std::memory_order_relaxed);
      }
      candidate->phase = ExecState::Phase::running;
      candidate->started_at = now;
      g_running->add(1);
      ctr_dispatched->inc();
      ++client_state(candidate->client_id).dispatched;
      running_execs.push_back(candidate);
      auto& tracer = obs::TraceRecorder::instance();
      for (const auto& job : candidate->subscribers) {
        {
          MutexLock job_lock(job->m);
          if (!is_terminal(job->status)) job->status = JobStatus::running;
        }
        if (tracer.enabled()) {
          // One queue span per subscriber: each job waited from its own
          // submit instant, even when they share the execution.
          tracer.record_span("queue", "service", job->submitted_at, now,
                             job->id, job->trace_id);
          tracer.record_instant("dispatch", "service", job->id,
                                job->trace_id);
        }
        // Dispatched: the job leaves its client's queued tally (jobs the
        // triage above finished already left it via finish_job).
        if (job->counted_queued) {
          job->counted_queued = false;
          ClientState& client = client_state(job->client_id);
          if (client.queued_jobs > 0) --client.queued_jobs;
        }
      }
      exec = candidate;
      break;
    }
  }
  if (!exec) return;

  solvers::SolveOptions options = exec->options;
  options.stop = exec->stop;
  // The kernel polls the execution's own token; the watchdog below bridges
  // the external stop sources.  Every subscriber's own StopToken (captured
  // at submit, so a token that cancels a direct solve() also cancels the
  // routed one) is routed through cancel_job rather than straight to the
  // kernel: a signalled token is *that job's* cancellation, and the
  // coalescing invariant — the kernel is stop-signalled only when the last
  // interested job cancels — must hold for token-driven cancels too.
  // Per-job deadlines work the same way via expire_due_jobs: a due job is
  // detached as expired, and only the last interested one stops the
  // kernel.  Both per-sweep checks are lock-free (atomic loads); the watch
  // list lives on the execution, so submit() can re-arm the watchdog when a
  // tighter-deadline job coalesces onto this run — which is why the
  // wrapper is installed for every coalescable execution, even one with
  // nothing to watch yet.  A late joiner's stop *token* is still reachable
  // only via its handle (ServiceSolver polls for exactly that case).
  // `raw` stays valid: this frame owns a shared_ptr for the whole call.
  const solvers::SweepProgressFn user_tick = exec->options.on_sweep;
  {
    // Installed unconditionally since the obs layer landed: the wrapper is
    // also where the per-sweep counter and (when tracing) sweep instants
    // tick, so even a bypass_cache run with no deadlines and no stop tokens
    // needs it.  Disabled-tracing cost per tick: one atomic inc + one
    // relaxed load.
    ExecState* raw = exec.get();
    options.on_sweep = [this, raw, tokens, user_tick] {
      if (user_tick) user_tick();
      ctr_sweeps->inc();
      auto& tracer = obs::TraceRecorder::instance();
      if (tracer.enabled()) {
        tracer.record_instant("sweep", "solver", raw->creator_job_id,
                              raw->creator_trace_id);
      }
      for (const auto& entry : *tokens) {
        if (entry.token.stop_requested() &&
            !entry.handled->exchange(true, std::memory_order_relaxed)) {
          cancel_job(entry.job);  // takes m; the kernel thread holds no locks
        }
      }
      const auto due_ns =
          raw->next_deadline_ns.load(std::memory_order_relaxed);
      if (due_ns != std::numeric_limits<std::int64_t>::max() &&
          to_ns(Clock::now()) >= due_ns) {
        expire_due_jobs(raw);
      }
    };
  }

  std::shared_ptr<const qubo::SolveBatch> batch;
  std::string error;
  bool solver_failed = false;
  try {
    obs::ScopedSpan kernel_span("kernel", "solver", exec->creator_job_id,
                                exec->creator_trace_id);
    batch = std::make_shared<const qubo::SolveBatch>(
        exec->solver->solve(exec->model, options));
  } catch (const std::exception& e) {
    solver_failed = true;
    error = e.what();
  } catch (...) {
    solver_failed = true;
    error = "unknown solver exception";
  }
  const auto finished_at = Clock::now();

  const double run_ms = ms_between(exec->started_at, finished_at);
  bool persist = false;
  {
    MutexLock lock(m);
    g_running->add(-1);
    exec->phase = ExecState::Phase::finished;
    drop_inflight(exec);
    std::erase(running_execs, exec);
    const bool stopped = exec->stop.stop_requested();
    const bool deadline_hit =
        exec->deadline_hit.load(std::memory_order_relaxed);
    h_run->observe(run_ms);
    bool primary_taken = false;
    for (const auto& job : exec->subscribers) {
      JobResult r;
      r.batch = batch;  // partial on cancelled/expired, null on failed
      r.run_ms = run_ms;
      r.wait_ms = ms_between(job->submitted_at, exec->started_at);
      if (solver_failed) {
        r.status = JobStatus::failed;
        r.error = error;
      } else if (job_wants_cancel(job)) {
        r.status = JobStatus::cancelled;
      } else if (deadline_hit && job->deadline) {
        // `expired` only for jobs that actually set a deadline; a
        // deadline-free job that coalesced onto this execution mid-run is
        // reported `cancelled` (partial batch) instead of a deadline it
        // never asked for.
        r.status = JobStatus::expired;
      } else if (stopped) {
        r.status = JobStatus::cancelled;  // shutdown or the submitter's token
      } else {
        r.status = JobStatus::done;
        r.coalesced = primary_taken;
      }
      const bool done_result = r.status == JobStatus::done;
      if (finish_job(job, std::move(r)) && done_result) primary_taken = true;
    }
    // Only clean, complete batches are cacheable: a stopped run's batch is
    // partial and must not be served as the canonical result.
    if (!solver_failed && !stopped && exec->cacheable) {
      cache.put(exec->key, batch);
      persist = store != nullptr;
    }
    exec->subscribers.clear();
  }
  // Journal the result outside `m`: the store has its own lock, and disk
  // I/O must not serialise against submits or other completions.
  if (persist) {
    bool appended = false;
    const auto append_start = Clock::now();
    {
      obs::ScopedSpan journal_span("journal_append", "io",
                                   exec->creator_job_id,
                                   exec->creator_trace_id);
      appended = store->append({exec->key, run_ms, batch});
    }
    h_journal->observe(ms_between(append_start, Clock::now()));
    if (appended) ctr_journal_appends->inc();
  }
}

}  // namespace detail

// --- JobHandle --------------------------------------------------------------

JobHandle::JobHandle(std::shared_ptr<detail::JobState> state)
    : state_(std::move(state)) {}

std::uint64_t JobHandle::id() const {
  QROSS_REQUIRE(valid(), "empty job handle");
  return state_->id;
}

JobStatus JobHandle::status() const {
  QROSS_REQUIRE(valid(), "empty job handle");
  MutexLock lock(state_->m);
  return state_->status;
}

JobResult JobHandle::wait() const {
  QROSS_REQUIRE(valid(), "empty job handle");
  MutexLock lock(state_->m);
  while (!is_terminal(state_->status)) state_->cv.wait(lock.native());
  return state_->result;
}

bool JobHandle::wait_for(std::chrono::milliseconds timeout) const {
  QROSS_REQUIRE(valid(), "empty job handle");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(state_->m);
  while (!is_terminal(state_->status)) {
    if (state_->cv.wait_until(lock.native(), deadline) ==
        std::cv_status::timeout) {
      return is_terminal(state_->status);
    }
  }
  return true;
}

JobResult JobHandle::result() const {
  QROSS_REQUIRE(valid(), "empty job handle");
  MutexLock lock(state_->m);
  QROSS_REQUIRE(is_terminal(state_->status), "job not finished");
  return state_->result;
}

void JobHandle::notify(std::function<void()> fn) const {
  QROSS_REQUIRE(valid(), "empty job handle");
  bool fire_now = false;
  {
    MutexLock lock(state_->m);
    if (is_terminal(state_->status)) {
      fire_now = true;
    } else {
      state_->on_terminal = std::move(fn);
    }
  }
  if (fire_now && fn) fn();
}

void JobHandle::cancel() const {
  if (!valid()) return;
  const auto core = state_->core.lock();
  if (!core) return;  // service gone: its destructor finished every job
  core->cancel_job(state_);
}

// --- SolveService -----------------------------------------------------------

SolveService::SolveService(ServiceConfig config)
    : core_(std::make_shared<detail::ServiceCore>(config)),
      pool_(config.num_workers) {}

SolveService::~SolveService() {
  shutdown();
  // pool_ (declared after core_) is destroyed first: it drains the pending
  // pop tasks — which find only dead executions — and joins workers whose
  // kernels exit within one sweep of the stop request above.
}

JobHandle SolveService::submit(solvers::SolverPtr solver,
                               const qubo::QuboModel& model,
                               solvers::SolveOptions options,
                               SubmitOptions submit) {
  QROSS_REQUIRE(solver != nullptr, "solver required");
  QROSS_REQUIRE(options.num_replicas > 0, "num_replicas must be at least 1");
  const Fingerprint key = [&] {
    // The job id is assigned under the lock below, so the span carries only
    // the trace id.
    obs::ScopedSpan span("fingerprint", "service", 0, submit.trace_id);
    return fingerprint_job(*solver, model, options);
  }();
  auto job = std::make_shared<detail::JobState>();
  job->priority = submit.priority;
  job->deadline = submit.deadline;
  job->client_id = submit.client_id;
  job->trace_id = submit.trace_id;
  job->stop = options.stop;
  job->submitted_at = Clock::now();
  job->core = core_;

  bool schedule = false;
  {
    MutexLock lock(core_->m);
    if (core_->shutting_down) {
      throw AdmissionError(AdmissionErrorKind::shutting_down,
                           "service is shutting down; submission refused");
    }
    const std::string client_name =
        submit.client_id.empty() ? "(anonymous)" : submit.client_id;
    auto& client = core_->client_state(submit.client_id);

    // --- admission control: decide BEFORE mutating any state ---------------
    // The cache is consulted first: a hit completes immediately inside this
    // lock without occupying a worker or queue slot, so the quotas — which
    // bound resource occupancy, not free work — never refuse one.
    std::shared_ptr<const qubo::SolveBatch> hit;
    if (!submit.bypass_cache && core_->cache.enabled()) {
      hit = core_->cache.get(key);
    }
    if (hit == nullptr && core_->config.max_inflight_per_client > 0 &&
        client.inflight_jobs >= core_->config.max_inflight_per_client) {
      ++client.rejected_inflight;
      core_->ctr_admission_rejected->inc();
      throw AdmissionError(
          AdmissionErrorKind::inflight_quota,
          "client '" + client_name + "' is at its inflight-job quota (" +
              std::to_string(core_->config.max_inflight_per_client) +
              "); finish or cancel existing jobs first");
    }
    std::shared_ptr<detail::ExecState> join;
    if (!submit.bypass_cache) {
      if (hit == nullptr) {
        const auto it = core_->inflight.find(key);
        // A stop-signalled execution is about to exit with a partial batch
        // — a fresh submission must not coalesce onto it; it gets its own
        // execution (the inflight slot is simply overwritten below).
        if (it != core_->inflight.end() && !it->second->dead &&
            it->second->phase != detail::ExecState::Phase::finished &&
            !it->second->stop.stop_requested()) {
          join = it->second;
        }
      }
    }
    // Only submissions that land in the queue count against the queued
    // quota: cache hits finish immediately and joins onto a running
    // execution occupy no queue slot.
    const bool will_queue =
        hit == nullptr &&
        (join == nullptr || join->phase == detail::ExecState::Phase::queued);
    if (will_queue && core_->config.max_queued_per_client > 0 &&
        client.queued_jobs >= core_->config.max_queued_per_client) {
      ++client.rejected_queued;
      core_->ctr_admission_rejected->inc();
      throw AdmissionError(
          AdmissionErrorKind::queued_quota,
          "client '" + client_name + "' is at its queued-job quota (" +
              std::to_string(core_->config.max_queued_per_client) +
              "); wait for queued jobs to start");
    }

    // --- admitted -----------------------------------------------------------
    job->id = core_->next_job_id++;
    ++client.submitted;
    ++client.inflight_jobs;
    core_->ctr_submitted->inc();
    auto& tracer = obs::TraceRecorder::instance();
    if (tracer.enabled()) {
      tracer.record_instant("submit", "service", job->id, job->trace_id);
    }

    if (hit != nullptr) {
      core_->ctr_cache_hits->inc();
      if (tracer.enabled()) {
        tracer.record_instant("cache_hit", "service", job->id, job->trace_id);
      }
      JobResult r;
      r.status = JobStatus::done;
      r.batch = std::move(hit);
      r.cache_hit = true;
      core_->finish_job(job, std::move(r));
      return JobHandle(std::move(job));
    }
    if (!submit.bypass_cache && core_->cache.enabled()) {
      core_->ctr_cache_misses->inc();
    }
    if (join != nullptr) {
      join->subscribers.push_back(job);
      job->exec = join;
      core_->ctr_coalesced->inc();
      if (join->phase == detail::ExecState::Phase::running) {
        {
          MutexLock job_lock(job->m);
          job->status = JobStatus::running;
        }
        if (job->deadline) {
          // Re-arm the mid-run watchdog: the new deadline joins the
          // execution's watch list, and the lock-free bound is tightened
          // so the next sweep tick observes it.  Without this a job with
          // a tighter deadline than every subscriber present at start
          // would only expire when the kernel finished (ROADMAP gap).
          auto& watch = join->watch;
          const auto pos = std::upper_bound(
              watch.begin(), watch.end(), *job->deadline,
              [](const Clock::time_point& t, const auto& e) {
                return t < e.first;
              });
          watch.insert(pos, {*job->deadline, job});
          join->next_deadline_ns.store(to_ns(watch.front().first),
                                       std::memory_order_relaxed);
        }
      } else {
        ++client.queued_jobs;
        job->counted_queued = true;
        if (submit.priority > join->priority) {
          // Promote: push a higher-priority duplicate; the old entry is
          // skipped as stale when popped.
          join->priority = submit.priority;
          core_->push_ready(join);
          schedule = true;
        }
      }
      if (schedule) pool_.submit([core = core_] { core->run_one(); });
      return JobHandle(std::move(job));
    }

    auto exec = std::make_shared<detail::ExecState>();
    exec->key = key;
    exec->solver = std::move(solver);
    exec->model = model;  // the one copy, paid only for a fresh execution
    exec->options = std::move(options);
    exec->cacheable = !submit.bypass_cache;
    exec->priority = submit.priority;
    exec->client_id = submit.client_id;
    exec->creator_job_id = job->id;
    exec->creator_trace_id = job->trace_id;
    exec->subscribers.push_back(job);
    job->exec = exec;
    ++client.queued_jobs;
    job->counted_queued = true;
    if (!submit.bypass_cache) core_->inflight[key] = exec;
    core_->push_ready(exec);
    core_->g_queue_depth->add(1);
    schedule = true;
  }
  if (schedule) pool_.submit([core = core_] { core->run_one(); });
  return JobHandle(std::move(job));
}

namespace {

LatencyPercentiles percentiles_of(const obs::Histogram& histogram) {
  LatencyPercentiles p;
  p.count = histogram.count();
  p.p50_ms = histogram.quantile(0.50);
  p.p90_ms = histogram.quantile(0.90);
  p.p99_ms = histogram.quantile(0.99);
  return p;
}

}  // namespace

ServiceMetrics SolveService::metrics() const {
  // Every instrument read here except the journal-append counter (see
  // ServiceMetrics::cache_stored) is updated under core_->m, so holding it
  // makes the snapshot consistent across counters.
  MutexLock lock(core_->m);
  ServiceMetrics s;
  s.workers = pool_.size();
  s.queue_depth = static_cast<std::size_t>(core_->g_queue_depth->value());
  s.running = static_cast<std::size_t>(core_->g_running->value());
  s.submitted = core_->ctr_submitted->value();
  s.completed = core_->ctr_done->value();
  s.cancelled = core_->ctr_cancelled->value();
  s.expired = core_->ctr_expired->value();
  s.failed = core_->ctr_failed->value();
  s.coalesced = core_->ctr_coalesced->value();
  s.solver_invocations = core_->ctr_dispatched->value();
  s.cache_hits = core_->ctr_cache_hits->value();
  s.cache_misses = core_->ctr_cache_misses->value();
  s.cache_evictions = core_->cache.evictions() - core_->startup_evictions;
  s.cache_size = core_->cache.size();
  s.cache_loaded = core_->cache_loaded;
  s.cache_stored = core_->ctr_journal_appends->value();
  s.cache_load_skipped = core_->cache_load_skipped;
  s.admission_rejected = core_->ctr_admission_rejected->value();
  s.simd_kernel = qubo::to_string(qubo::active_simd_kind());
  s.clients.reserve(core_->clients.size());
  for (const auto& [id, c] : core_->clients) {
    ClientSchedulerMetrics row;
    row.client_id = id;
    row.weight = c.weight;
    row.queued = c.queued_jobs;
    row.inflight = c.inflight_jobs;
    row.submitted = c.submitted;
    row.completed = c.completed;
    row.dispatched = c.dispatched;
    row.rejected_inflight = c.rejected_inflight;
    row.rejected_queued = c.rejected_queued;
    s.clients.push_back(std::move(row));
  }
  const auto now = Clock::now();
  s.uptime_seconds =
      std::chrono::duration<double>(now - core_->started_at).count();
  s.jobs_per_second =
      s.uptime_seconds > 0.0
          ? static_cast<double>(s.completed) / s.uptime_seconds
          : 0.0;
  s.recent_jobs_per_second = core_->recent_rate.rate(now);
  s.queue_wait = percentiles_of(*core_->h_queue_wait);
  s.run = percentiles_of(*core_->h_run);
  return s;
}

std::size_t SolveService::flush_cache() {
  // Deliberately NOT under core_->m: the store is internally synchronised,
  // and compaction (two file scans + an atomic rewrite) must not stall the
  // submit path.  An append racing the compaction lands in a fresh journal
  // and is folded in by the next flush or the destructor.
  return core_->store ? core_->compact() : 0;
}

obs::Registry& SolveService::registry() { return core_->registry; }

void SolveService::shutdown() {
  MutexLock lock(core_->m);
  core_->shutting_down = true;
  const auto now = Clock::now();
  // pop_ready drains every band (skipping stale/dead entries itself), so
  // this cancels exactly the executions still waiting for a worker.
  while (auto exec = core_->pop_ready()) {
    exec->dead = true;
    core_->g_queue_depth->add(-1);
    core_->drop_inflight(exec);
    for (const auto& job : exec->subscribers) {
      JobResult r;
      r.status = JobStatus::cancelled;
      r.wait_ms = ms_between(job->submitted_at, now);
      core_->finish_job(job, std::move(r));
    }
    exec->subscribers.clear();
  }
  // Stop-signal every execution currently inside a kernel — tracked
  // separately from `inflight`, which bypass_cache executions never enter;
  // the worker's completion path marks their jobs cancelled.
  for (const auto& exec : core_->running_execs) {
    exec->stop.request_stop();
  }
}

}  // namespace qross::service
