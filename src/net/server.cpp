#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <fcntl.h>
#include <map>
#include <memory>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <type_traits>
#include <unistd.h>
#include <unordered_map>
#include <utility>
#include <variant>

#include "common/thread_annotations.hpp"
#include "io/binary.hpp"
#include "obs/log.hpp"
#include "service/tune_service.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/parallel_tempering.hpp"
#include "solvers/qbsolv.hpp"
#include "solvers/simulated_annealer.hpp"
#include "solvers/tabu_search.hpp"

namespace qross::net {

solvers::SolverPtr default_solver_registry(const std::string& name) {
  if (name == "da") return std::make_shared<solvers::DigitalAnnealer>();
  if (name == "sa") return std::make_shared<solvers::SimulatedAnnealer>();
  if (name == "tabu") return std::make_shared<solvers::TabuSearch>();
  if (name == "pt") return std::make_shared<solvers::ParallelTempering>();
  if (name == "qbsolv") return std::make_shared<solvers::Qbsolv>();
  return nullptr;
}

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct Server::Impl {
  /// One in-flight request on a connection, from admission until its
  /// terminal frame is queued: a solve job or a tune session, with the
  /// streaming state of its kind.
  struct Request {
    std::variant<service::JobHandle, service::TuneHandle> handle;
    std::uint64_t trace_id = 0;  ///< client-supplied; stamps the result span
    bool stream_status = false;  ///< job: stream queued→running changes
    service::JobStatus last_reported = service::JobStatus::queued;  ///< job
    std::size_t reported = 0;  ///< tune: trial events streamed so far

    bool is_tune() const {
      return std::holds_alternative<service::TuneHandle>(handle);
    }
    bool finished() const {
      return std::visit([](const auto& h) { return h.finished(); }, handle);
    }
    void cancel() const {
      std::visit([](const auto& h) { h.cancel(); }, handle);
    }
  };

  struct Connection {
    std::uint64_t id = 0;
    /// Admission identity: the Hello's self-reported client_id, else
    /// "conn-<id>" so each anonymous connection is its own quota bucket.
    std::string client_id;
    Socket sock;
    FrameBuffer in;  // its version() frames both directions
    std::vector<std::uint8_t> out;  // unsent frame bytes, FIFO
    std::size_t out_offset = 0;
    bool handshaken = false;
    bool closing = false;  // flush `out`, then close
    std::map<std::uint64_t, Request> requests;  // the ledger, by tag
    std::uint64_t submitted = 0;
    std::uint64_t results = 0;
    std::uint64_t cancels = 0;

    Connection(std::uint64_t id_, Socket sock_, std::uint32_t max_frame_bytes)
        : id(id_), sock(std::move(sock_)), in(max_frame_bytes) {}
  };

  /// Completion hooks outlive the server when cancelled kernels finish
  /// late; they reach the Impl only through this null-able indirection.
  /// Hooks call deliver() — never touch `impl` directly — so the guard is
  /// enforced at the one place the pointer is read.
  struct CompletionSink {
    Mutex m;
    Impl* impl GUARDED_BY(m) = nullptr;  // nulled by stop() after the join

    void deliver(std::uint64_t conn_id, std::uint64_t tag) EXCLUDES(m) {
      MutexLock lock(m);
      if (impl != nullptr) impl->on_complete(conn_id, tag);
    }

    /// Severs the indirection; any hook mid-deliver finishes first (it
    /// holds m), so after this returns no hook can reach the Impl.
    void detach() EXCLUDES(m) {
      MutexLock lock(m);
      impl = nullptr;
    }
  };

  Impl(service::SolveService& svc, ServerConfig cfg)
      : service(svc), config(std::move(cfg)) {
    sink = std::make_shared<CompletionSink>();
    {
      MutexLock lock(sink->m);
      sink->impl = this;
    }
  }

  service::SolveService& service;
  ServerConfig config;
  std::shared_ptr<CompletionSink> sink;

  std::vector<Socket> listeners;
  std::vector<Endpoint> bound;
  int wake_read = -1;
  int wake_write = -1;
  std::thread reactor;
  /// Owner-thread-only: start()/drain()/stop() are driven by the thread
  /// that owns the Server (qrossd's main/signal path), never the reactor.
  bool started = false;

  // Cross-thread state (reactor <-> public API / completion hooks): the
  // completion queue and the drain/stop flags.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t tag = 0;
  };
  mutable Mutex m;
  std::condition_variable cv;
  std::vector<Completion> completions GUARDED_BY(m);
  bool stop_requested GUARDED_BY(m) = false;
  bool draining GUARDED_BY(m) = false;
  bool drain_done GUARDED_BY(m) = false;
  bool stopped GUARDED_BY(m) = false;

  // Reactor-thread-only state (stop() touches it only after the join, when
  // the reactor is gone — single-threaded again, so no guard applies).
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns;
  std::uint64_t next_conn_id = 1;

  // The server's counters live in the service's registry, the only store
  // of these counts: Server::stats() and the Metrics frame read them back.
  // Updates are atomic, so the reactor bumps them without a lock.
  obs::Counter* counter(const char* name, const char* help) {
    return service.registry().counter(name, help);
  }
  obs::Counter* const ctr_accepted = counter(
      "qross_net_connections_accepted_total", "Connections accepted");
  obs::Gauge* const g_active = service.registry().gauge(
      "qross_net_connections_active", "Connections open now");
  obs::Counter* const ctr_rejected_full = counter(
      "qross_net_connections_rejected_full_total", "Accepts refused: full");
  obs::Counter* const ctr_frames_received = counter(
      "qross_net_frames_received_total", "Well-framed frames received");
  obs::Counter* const ctr_frames_sent =
      counter("qross_net_frames_sent_total", "Frames queued to peers");
  obs::Counter* const ctr_protocol_errors = counter(
      "qross_net_protocol_errors_total", "Error frames for protocol misuse");
  obs::Counter* const ctr_submits =
      counter("qross_net_submits_total", "SubmitJob requests admitted");
  obs::Counter* const ctr_results_sent =
      counter("qross_net_results_sent_total", "Result frames queued");
  obs::Counter* const ctr_cancels =
      counter("qross_net_cancels_total", "CancelJob requests honoured");
  obs::Counter* const ctr_hangup_jobs = counter(
      "qross_net_disconnect_cancelled_jobs_total", "Hangup-cancelled jobs");
  obs::Counter* const ctr_tune_submits =
      counter("qross_net_tune_submits_total", "SubmitTune sessions admitted");
  obs::Counter* const ctr_tune_results_sent =
      counter("qross_net_tune_results_sent_total", "TuneResult frames queued");
  obs::Counter* const ctr_tune_cancels =
      counter("qross_net_tune_cancels_total", "CancelTune requests honoured");
  obs::Counter* const ctr_hangup_tunes = counter(
      "qross_net_disconnect_cancelled_tunes_total", "Hangup-cancelled tunes");

  ServerStats snapshot() const {
    ServerStats s;
    s.connections_accepted = ctr_accepted->value();
    s.connections_active = static_cast<std::uint64_t>(g_active->value());
    s.frames_received = ctr_frames_received->value();
    s.frames_sent = ctr_frames_sent->value();
    s.submits = ctr_submits->value();
    s.results_sent = ctr_results_sent->value();
    s.cancels = ctr_cancels->value();
    s.protocol_errors = ctr_protocol_errors->value();
    s.disconnect_cancelled_jobs = ctr_hangup_jobs->value();
    s.connections_rejected_full = ctr_rejected_full->value();
    s.tune_submits = ctr_tune_submits->value();
    s.tune_results_sent = ctr_tune_results_sent->value();
    s.tune_cancels = ctr_tune_cancels->value();
    s.disconnect_cancelled_tunes = ctr_hangup_tunes->value();
    return s;
  }

  // --- wakeup -----------------------------------------------------------

  void wake() const {
    const char byte = 1;
    if (wake_write >= 0) {
      [[maybe_unused]] const auto n = ::write(wake_write, &byte, 1);
    }
  }

  /// Called by JobHandle::notify / TuneHandle::notify hooks — possibly from
  /// inside the service lock, so this must only enqueue and signal (see
  /// job.hpp contract).  Tune hooks are persistent (one enqueue per trial
  /// plus the terminal one); the reactor dedups via Request::reported.
  ///
  /// Only the empty → non-empty transition wakes the reactor: it drains the
  /// pipe before it swaps the queue out, so every later push either lands
  /// before that swap or finds the queue empty again and wakes it anew.  A
  /// burst of cache hits costs one pipe write, not one per job.
  void on_complete(std::uint64_t conn_id, std::uint64_t tag) EXCLUDES(m) {
    bool was_empty = false;
    {
      MutexLock lock(m);
      was_empty = completions.empty();
      completions.push_back({conn_id, tag});
    }
    if (was_empty) wake();
  }

  // --- frame output -----------------------------------------------------

  /// Frames the payload straight into the connection's send buffer.  No
  /// send here: the reactor flushes each connection once per pass, so a
  /// burst of frames leaves in one write instead of one per frame.
  void queue_frame(Connection* conn, std::uint32_t type,
                   std::span<const std::uint8_t> payload) {
    ctr_frames_sent->inc();
    obs::ScopedSpan span("frame_encode", "net");
    append_frame(conn->out, type, payload, conn->in.version());
  }

  /// Admission/lifecycle refusals (draining, quota): the peer used the
  /// protocol correctly, so the Error frame goes out WITHOUT counting a
  /// protocol error — those rejections have their own counters
  /// (ServiceMetrics::admission_rejected, ServerStats rejection fields).
  void queue_refusal(Connection* conn, std::uint64_t tag, std::uint32_t code,
                     const std::string& message) {
    queue_frame(conn, io::kRecordNetError,
                encode_error({.tag = tag, .code = code, .message = message}));
  }

  void queue_error(Connection* conn, std::uint64_t tag, std::uint32_t code,
                   const std::string& message) {
    // Count BEFORE the frame departs: a peer that has seen the Error frame
    // must see the counter too (tests and operators correlate the two).
    ctr_protocol_errors->inc();
    queue_refusal(conn, tag, code, message);
  }

  /// A protocol error the stream cannot recover from: the Error frame goes
  /// out, then the connection closes.
  void close_with_error(Connection* conn, std::uint32_t code,
                        const std::string& message) {
    queue_error(conn, 0, code, message);
    conn->closing = true;
  }

  /// Non-blocking write of the pending bytes; a peer that cannot keep up
  /// simply keeps its buffer until POLLOUT.
  void flush_out(Connection* conn) {
    while (conn->out_offset < conn->out.size()) {
      const ssize_t n =
          ::send(conn->sock.fd(), conn->out.data() + conn->out_offset,
                 conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        conn->closing = true;  // broken pipe: drop the bytes, close later
        break;
      }
      conn->out_offset += static_cast<std::size_t>(n);
    }
    conn->out.clear();
    conn->out_offset = 0;
  }

  bool out_empty(const Connection* conn) const {
    return conn->out_offset >= conn->out.size();
  }

  // --- request handling -------------------------------------------------

  /// Decodes a SubmitJob or SubmitTune and runs the checks both kinds
  /// share, in order: decodable, not draining, (tunes) a tuner loaded, tag
  /// not in flight, solver name known.  Returns the solver, or null once
  /// the refusal is queued.
  template <typename Submit>
  solvers::SolverPtr admit(Connection* conn, const Frame& f, Submit& submit)
      EXCLUDES(m) {
    constexpr bool kTune = std::is_same_v<Submit, SubmitTuneFrame>;
    // std::exception, not just DecodeError: a decoder slip (bad_alloc from
    // a hostile size that passed the sanity bounds, length_error, ...)
    // must cost one request, never the reactor thread.
    try {
      obs::ScopedSpan span("frame_decode", "net");
      if constexpr (kTune) {
        submit = decode_submit_tune(f.payload);
      } else {
        submit = decode_submit(f.payload);
      }
    } catch (const std::exception& e) {
      queue_error(conn, 0, kErrBadFrame,
                  std::string(kTune ? "undecodable SubmitTune: "
                                    : "undecodable SubmitJob: ") +
                      e.what());
      return nullptr;
    }
    if (is_draining()) {
      queue_refusal(conn, submit.tag, kErrDraining,
                    "server is draining; submissions refused");
      return nullptr;
    }
    if (kTune && config.tune == nullptr) {
      // Capability refusal, not a protocol error: the frame was fine, this
      // daemon just runs without a tuner (qrossd without --tuner).
      queue_refusal(conn, submit.tag, kErrTuningUnavailable,
                    "no tuner loaded on this server");
      return nullptr;
    }
    if (conn->requests.contains(submit.tag)) {
      queue_error(conn, submit.tag, kErrBadRequest,
                  "tag already has an in-flight request");
      return nullptr;
    }
    auto solver = config.registry(submit.solver);
    if (solver == nullptr) {
      queue_error(conn, submit.tag, kErrUnknownSolver,
                  "unknown solver: " + submit.solver);
    }
    return solver;
  }

  /// Submits through `submit` (which returns the JobHandle or TuneHandle),
  /// enters the admitted request in the ledger and arms its completion
  /// hook: once for a job (at once, here, for a cache hit), per trial plus
  /// the terminal one for a tune.  Null once the refusal is queued.
  template <typename SubmitFn>
  Request* track(Connection* conn, std::uint64_t tag, std::uint64_t trace_id,
                 SubmitFn&& submit) {
    Request request;
    try {
      request.handle = submit();
    } catch (const service::AdmissionError& e) {
      // Transient refusals are retryable: draining (kErrDraining) or a full
      // session quota (kErrServerFull, as for a full accept queue).  A per-
      // client quota is permanent until the client's OWN work finishes.
      queue_refusal(conn, tag,
                    e.kind() == service::AdmissionErrorKind::shutting_down
                        ? kErrDraining
                        : (e.retryable() ? kErrServerFull : kErrQuotaExceeded),
                    e.what());
      return nullptr;
    } catch (const std::exception& e) {
      // Anything else is wrong with THIS request (bad options, invalid
      // model or instance): permanent, never "retry the same bytes later".
      queue_error(conn, tag, kErrBadRequest, e.what());
      return nullptr;
    }
    request.trace_id = trace_id;
    Request& entry =
        conn->requests.emplace(tag, std::move(request)).first->second;
    ++conn->submitted;
    (entry.is_tune() ? ctr_tune_submits : ctr_submits)->inc();
    std::visit(
        [&](const auto& handle) {
          handle.notify([sink_ref = sink, conn_id = conn->id, tag] {
            sink_ref->deliver(conn_id, tag);
          });
        },
        entry.handle);
    return &entry;
  }

  void handle_submit(Connection* conn, const Frame& f) EXCLUDES(m) {
    SubmitJobFrame submit;
    const auto solver = admit(conn, f, submit);
    if (solver == nullptr) return;
    const solvers::SolveOptions options{.num_replicas = submit.num_replicas,
                                        .num_sweeps = submit.num_sweeps,
                                        .seed = submit.seed};
    service::SubmitOptions submit_options;
    submit_options.priority = submit.priority;
    submit_options.bypass_cache = submit.bypass_cache;
    submit_options.client_id = conn->client_id;
    submit_options.trace_id = submit.trace_id;
    if (submit.deadline_ms > 0) {
      submit_options.deadline = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(submit.deadline_ms);
    }
    Request* request = track(conn, submit.tag, submit.trace_id, [&] {
      return service.submit(solver, submit.model, options, submit_options);
    });
    if (request == nullptr || !submit.stream_status) return;
    request->stream_status = true;
    const auto& handle = std::get<service::JobHandle>(request->handle);
    if (!handle.finished()) {
      queue_job_status(conn, submit.tag, *request, handle.status());
    }
  }

  void handle_submit_tune(Connection* conn, const Frame& f) EXCLUDES(m) {
    SubmitTuneFrame submit;
    const auto solver = admit(conn, f, submit);
    if (solver == nullptr) return;
    if (submit.strategy > kTuneOfs) {
      queue_error(conn, submit.tag, kErrBadRequest,
                  "unknown tune strategy code " +
                      std::to_string(submit.strategy));
      return;
    }
    track(conn, submit.tag, submit.trace_id, [&] {
      tsp::TspInstance instance = unpack_tsp_instance(
          submit.instance, submit.instance_name.empty()
                               ? "remote-tune-" + std::to_string(submit.tag)
                               : submit.instance_name);
      core::TuneOptions options;
      options.trials = submit.trials;
      options.a_min = submit.a_min;
      options.a_max = submit.a_max;
      options.seed = submit.seed;
      options.mode = static_cast<core::TuneStrategyKind>(submit.strategy);
      options.pf_target = submit.pf_target;
      return config.tune->submit(
          std::move(instance), solver, std::move(options),
          {.client_id = conn->client_id, .trace_id = submit.trace_id});
    });
  }

  /// The handshake: the first frame must be a Hello this server can serve,
  /// else the connection closes after the Error frame.
  void handle_hello(Connection* conn, const Frame& f) {
    if (f.type != io::kRecordNetHello) {
      return close_with_error(conn, kErrHandshakeRequired,
                              "first frame must be Hello");
    }
    HelloFrame hello;
    try {
      hello = decode_hello(f.payload);
    } catch (const io::DecodeError& e) {
      return close_with_error(conn, kErrBadFrame,
                              std::string("undecodable Hello: ") + e.what());
    }
    if (hello.protocol_version > kProtocolVersion) {
      // A FUTURE client: refuse rather than guess at its semantics.  The
      // error carries our version so the client can retry lower.
      return close_with_error(
          conn, kErrFutureVersion,
          "protocol version " + std::to_string(hello.protocol_version) +
              " is newer than this server's " +
              std::to_string(kProtocolVersion));
    }
    if (hello.protocol_version == 0) {
      return close_with_error(conn, kErrBadRequest,
                              "protocol version 0 is invalid");
    }
    if (hello.client_id.size() > 128) {
      // The id becomes a scheduler/metrics map key held for the daemon's
      // lifetime; an unbounded one is a memory lever, not a name.
      return close_with_error(conn, kErrBadRequest,
                              "client_id longer than 128 bytes");
    }
    conn->handshaken = true;
    conn->client_id = hello.client_id.empty()
                          ? "conn-" + std::to_string(conn->id)
                          : hello.client_id;
    obs::log_event(obs::LogLevel::debug, "conn_hello",
                   {{"conn", std::to_string(conn->id)},
                    {"client_id", conn->client_id},
                    {"protocol", std::to_string(hello.protocol_version)}});
    // The ack names the version the client offered (every version up to
    // ours is served) and is itself still a handshake frame; the frames
    // after it, both ways, carry that version's checksum.
    queue_frame(conn, io::kRecordNetHelloAck,
                encode_hello_ack({.protocol_version = hello.protocol_version,
                                  .max_frame_bytes = config.max_frame_bytes}));
    conn->in.set_version(hello.protocol_version);
  }

  void handle_frame(Connection* conn, const Frame& f) EXCLUDES(m) {
    ctr_frames_received->inc();
    if (!conn->handshaken) {
      handle_hello(conn, f);
      return;
    }
    switch (f.type) {
      case io::kRecordNetSubmitJob:
        handle_submit(conn, f);
        return;
      case io::kRecordNetSubmitTune:
        handle_submit_tune(conn, f);
        return;
      case io::kRecordNetCancelJob:
      case io::kRecordNetCancelTune: {
        const bool tune = f.type == io::kRecordNetCancelTune;
        std::uint64_t tag = 0;
        try {
          tag = tune ? decode_cancel_tune(f.payload).tag
                     : decode_cancel(f.payload).tag;
        } catch (const io::DecodeError&) {
          queue_error(conn, 0, kErrBadFrame,
                      tune ? "undecodable CancelTune" : "undecodable CancelJob");
          return;
        }
        // A tag names one request of one kind: cancelling it as the other
        // kind finds nothing in flight.
        const auto it = conn->requests.find(tag);
        if (it == conn->requests.end() || it->second.is_tune() != tune) {
          queue_error(conn, tag, kErrUnknownTag,
                      tune ? "no in-flight tune session with this tag"
                           : "no in-flight job with this tag");
          return;
        }
        // The terminal frame (status = cancelled) arrives through the
        // normal notify path once the job or session reaches its stop
        // boundary.
        it->second.cancel();
        ++conn->cancels;
        (tune ? ctr_tune_cancels : ctr_cancels)->inc();
        return;
      }
      case io::kRecordNetGetMetrics: {
        const ServerStats stats = snapshot();
        MetricsFrame metrics{
            .service = service.metrics(),
            .connections_accepted = stats.connections_accepted,
            .connections_active = stats.connections_active,
            .protocol_errors = stats.protocol_errors,
            .connection_submitted = conn->submitted,
            .connection_results = conn->results,
            .connection_cancelled = conn->cancels,
            .connections_rejected_full = stats.connections_rejected_full,
            .client_id = conn->client_id,
            .clients = {}};
        // The rows ride in MetricsFrame::clients on the wire; the copy
        // inside `service` is never encoded, so move it out.
        metrics.clients = std::move(metrics.service.clients);
        queue_frame(conn, io::kRecordNetMetrics, encode_metrics(metrics));
        return;
      }
      case io::kRecordNetGetTrace: {
        // The dump is a snapshot of the process-global recorder; an empty
        // buffer (tracing never enabled) is a valid empty trace, not an
        // error — the caller sees zero events and the counters.
        const std::string json =
            obs::chrome_trace_json(obs::TraceRecorder::instance());
        queue_frame(conn, io::kRecordNetTraceDump, encode_text(json));
        return;
      }
      case io::kRecordNetGetProm:
        queue_frame(conn, io::kRecordNetPromText,
                    encode_text(service.registry().render_prometheus()));
        return;
      case io::kRecordNetHello:
        queue_error(conn, 0, kErrBadRequest, "duplicate Hello");
        return;
      default:
        // Unknown-but-well-framed types mirror the snapshot scanner's
        // tolerance: reject the frame, keep the connection.
        queue_error(conn, 0, kErrUnknownType,
                    "unknown frame type " + std::to_string(f.type));
        return;
    }
  }

  /// Streams what a completion hook signalled: a job's Result, or a tune
  /// session's new trial events and, once terminal, its result.
  void send_progress(const Completion& c) {
    const auto conn_it = conns.find(c.conn_id);
    if (conn_it == conns.end()) return;  // connection already closed
    Connection* conn = conn_it->second.get();
    const auto it = conn->requests.find(c.tag);
    if (it == conn->requests.end()) return;  // tag already retired
    const bool tune = it->second.is_tune();
    if (!(tune ? send_tune_progress(conn, it->first, it->second)
               : send_result(conn, it->first, it->second))) {
      return;
    }
    (tune ? ctr_tune_results_sent : ctr_results_sent)->inc();
    conn->requests.erase(it);
    ++conn->results;
  }

  /// Queues a finished job's Result frame; false while it is still live.
  bool send_result(Connection* conn, std::uint64_t tag, const Request& job) {
    const auto& handle = std::get<service::JobHandle>(job.handle);
    if (!handle.finished()) return false;  // a stale wakeup for a reused tag
    const service::JobResult r = handle.result();
    const ResultFrame result{.tag = tag,
                             .status = r.status,
                             .cache_hit = r.cache_hit,
                             .coalesced = r.coalesced,
                             .wait_ms = r.wait_ms,
                             .run_ms = r.run_ms,
                             .error = r.error,
                             .batch = r.batch};
    // Encode + enqueue of the terminal result — the final lifecycle span
    // (submit → queue → dispatch → kernel → journal → result).
    obs::ScopedSpan span("result_flush", "net", handle.id(), job.trace_id);
    queue_frame(conn, io::kRecordNetResult, encode_result(result));
    return true;
  }

  /// Streams unreported trial events as TuneStatus frames, then — once the
  /// session is terminal — the TuneResult frame.  Idempotent per wakeup:
  /// the persistent hook enqueues one completion per trial, and `reported`
  /// makes each event go out exactly once.  True once the result is queued.
  bool send_tune_progress(Connection* conn, std::uint64_t tag, Request& tune) {
    const auto& handle = std::get<service::TuneHandle>(tune.handle);
    const auto events = handle.events_since(tune.reported);
    for (const auto& event : events) {
      const TuneStatusFrame status{
          .tag = tag,
          .trial = static_cast<std::uint32_t>(event.index),
          .total = static_cast<std::uint32_t>(event.total),
          .relaxation_parameter = event.relaxation_parameter,
          .pf = event.pf,
          .best_length = event.best_length,
          .energy_avg = event.energy_avg,
          .energy_std = event.energy_std,
          .feasible = event.feasible};
      queue_frame(conn, io::kRecordNetTuneStatus, encode_tune_status(status));
    }
    tune.reported += events.size();
    if (!handle.finished()) return false;
    // Every event precedes the terminal transition on the session thread,
    // so a finished handle has already streamed its full trial history.
    const service::TuneSessionResult r = handle.result();
    TuneResultFrame result;
    result.tag = tag;
    result.status = r.status == service::TuneSessionStatus::done ? kTuneDone
                    : r.status == service::TuneSessionStatus::cancelled
                        ? kTuneCancelled
                        : kTuneFailed;
    result.error = r.error;
    result.best_length = r.outcome.best_length;
    result.best_parameter = r.outcome.best_parameter;
    result.best_tour.assign(r.outcome.best_tour.begin(),
                            r.outcome.best_tour.end());
    result.trials.reserve(r.outcome.trials.size());
    for (const auto& trial : r.outcome.trials) {
      result.trials.push_back({trial.relaxation_parameter, trial.pf,
                               trial.best_length_so_far});
    }
    result.solver_invocations = r.solver_invocations;
    result.wall_ms = r.wall_ms;
    obs::ScopedSpan span("tune_result_flush", "net", handle.id(),
                         tune.trace_id);
    queue_frame(conn, io::kRecordNetTuneResult, encode_tune_result(result));
    return true;
  }

  // --- connection lifecycle ---------------------------------------------

  void close_connection(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    Connection* conn = it->second.get();
    std::uint64_t cancelled_jobs = 0;
    std::uint64_t cancelled_tunes = 0;
    for (const auto& [tag, request] : conn->requests) {
      if (request.finished()) continue;
      request.cancel();
      ++(request.is_tune() ? cancelled_tunes : cancelled_jobs);
    }
    obs::log_event(obs::LogLevel::info, "conn_close",
                   {{"conn", std::to_string(id)},
                    {"client_id", conn->client_id},
                    {"cancelled_jobs", std::to_string(cancelled_jobs)},
                    {"cancelled_tunes", std::to_string(cancelled_tunes)}});
    conns.erase(it);
    ctr_hangup_jobs->inc(cancelled_jobs);
    ctr_hangup_tunes->inc(cancelled_tunes);
    g_active->add(-1.0);
  }

  void accept_pending(const Socket& listener) {
    while (true) {
      const int fd = ::accept(listener.fd(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient error; poll again later
      }
      if (conns.size() >= config.max_connections) {
        // Tell the peer WHY before closing: a bare close looks like a
        // network failure and used to send Client's reconnect-with-backoff
        // hammering a full server forever.  kErrServerFull is retryable —
        // back off until some connection leaves.  Best-effort blocking
        // send: the frame is ~100 bytes into a fresh socket buffer, so it
        // cannot stall the reactor.
        const auto bytes = frame(
            io::kRecordNetError,
            encode_error({.code = kErrServerFull,
                          .message = "server at max_connections (" +
                                     std::to_string(config.max_connections) +
                                     "); retry after backoff"}));
        Socket(fd).send_all(bytes.data(), bytes.size());  // then closes
        ctr_rejected_full->inc();
        continue;
      }
      set_nonblocking(fd);
      set_tcp_nodelay(fd);
      const auto id = next_conn_id++;
      conns.emplace(id, std::make_unique<Connection>(id, Socket(fd),
                                                     config.max_frame_bytes));
      obs::log_event(obs::LogLevel::info, "conn_open",
                     {{"conn", std::to_string(id)}});
      ctr_accepted->inc();
      g_active->add(1.0);
    }
  }

  /// Reads everything available; returns false when the connection should
  /// be torn down after its out buffer flushes.
  bool read_ready(Connection* conn) EXCLUDES(m) {
    std::uint8_t buf[65536];
    bool saw_eof = false;
    while (true) {
      const ssize_t n = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;  // hard error: peer is gone
      }
      if (n == 0) {  // orderly EOF; handled after the frames are drained
        saw_eof = true;
        break;
      }
      conn->in.append(buf, static_cast<std::size_t>(n));
    }
    Frame f;
    while (true) {
      const auto status = conn->in.next(&f);
      if (status == FrameBuffer::Status::need_more) break;
      if (status == FrameBuffer::Status::oversized) {
        close_with_error(conn, kErrOversizedFrame,
                         "frame exceeds the " +
                             std::to_string(config.max_frame_bytes) +
                             "-byte limit");
        break;
      }
      if (status == FrameBuffer::Status::bad_frame) {
        close_with_error(conn, kErrBadFrame,
                         "frame checksum mismatch; closing the stream");
        break;
      }
      handle_frame(conn, f);
      if (conn->closing) break;
    }
    if (saw_eof) {
      // Only bytes the parse loop could not consume count as truncation —
      // a complete final frame followed by close is the legal
      // fire-and-forget pattern, not a protocol error.
      if (!conn->closing && conn->in.mid_frame()) {
        // The peer half-closed inside a frame; tell it (its read side may
        // still be open) before closing.
        queue_error(conn, 0, kErrTruncatedFrame,
                    "connection ended inside a frame");
      }
      conn->closing = true;
    }
    return true;
  }

  /// queued→running transitions for stream_status jobs (poll-driven; the
  /// terminal transition arrives through the completion hook instead).
  void stream_status_tick(Connection* conn) {
    for (auto& [tag, job] : conn->requests) {
      if (!job.stream_status) continue;
      const auto status = std::get<service::JobHandle>(job.handle).status();
      if (status != job.last_reported && !service::is_terminal(status)) {
        queue_job_status(conn, tag, job, status);
      }
    }
  }

  void queue_job_status(Connection* conn, std::uint64_t tag, Request& job,
                        service::JobStatus status) {
    queue_frame(conn, io::kRecordNetJobStatus,
                encode_job_status({.tag = tag, .status = status}));
    job.last_reported = status;
  }

  bool is_draining() const EXCLUDES(m) {
    MutexLock lock(m);
    return draining;
  }

  /// Blocks until the reactor reports the drain finished (or the server
  /// stopped underneath us); true iff drained within `deadline`.
  bool wait_drained(std::chrono::milliseconds deadline) EXCLUDES(m) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    MutexLock lock(m);
    while (!drain_done && !stopped) {
      if (cv.wait_until(lock.native(), until) == std::cv_status::timeout) {
        return drain_done || stopped;
      }
    }
    return true;
  }

  // --- the reactor ------------------------------------------------------

  void reactor_loop() EXCLUDES(m) {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = not a conn)
    while (true) {
      bool drain_now = false;
      {
        MutexLock lock(m);
        if (stop_requested) break;
        drain_now = draining;
      }
      fds.clear();
      fd_conn.clear();
      fds.push_back({wake_read, POLLIN, 0});
      fd_conn.push_back(0);
      if (!drain_now) {
        for (const auto& listener : listeners) {
          fds.push_back({listener.fd(), POLLIN, 0});
          fd_conn.push_back(0);
        }
      }
      bool any_stream_jobs = false;
      for (const auto& [id, conn] : conns) {
        short events = POLLIN;
        if (!out_empty(conn.get())) events |= POLLOUT;
        fds.push_back({conn->sock.fd(), events, 0});
        fd_conn.push_back(id);
        for (const auto& [tag, request] : conn->requests) {
          if (request.stream_status) any_stream_jobs = true;
        }
      }
      // Completions arrive via the wake pipe; the only reason to tick on a
      // timer is sampling queued→running transitions for streamed jobs,
      // and re-checking the drain condition.
      const int timeout_ms = any_stream_jobs ? 20 : (drain_now ? 50 : -1);
      int rc;
      do {
        rc = ::poll(fds.data(), fds.size(), timeout_ms);
      } while (rc < 0 && errno == EINTR);

      // Drain the wake pipe.
      if (fds[0].revents & POLLIN) {
        char sink_buf[256];
        while (::read(wake_read, sink_buf, sizeof(sink_buf)) > 0) {
        }
      }

      // Deliver completed jobs' Result frames and tune sessions' progress.
      std::vector<Completion> done;
      {
        MutexLock lock(m);
        done.swap(completions);
      }
      for (const auto& c : done) send_progress(c);

      // Accept, read, write.
      std::size_t fd_index = 1;
      if (!drain_now) {
        for (const auto& listener : listeners) {
          if (fds[fd_index].revents & POLLIN) accept_pending(listener);
          ++fd_index;
        }
      }
      std::vector<std::uint64_t> to_close;
      for (; fd_index < fds.size(); ++fd_index) {
        const auto conn_id = fd_conn[fd_index];
        const auto it = conns.find(conn_id);
        if (it == conns.end()) continue;
        Connection* conn = it->second.get();
        const short revents = fds[fd_index].revents;
        if (revents & (POLLERR | POLLNVAL)) {
          to_close.push_back(conn_id);
          continue;
        }
        if (revents & (POLLIN | POLLHUP)) {
          if (!read_ready(conn)) {
            to_close.push_back(conn_id);
            continue;
          }
        }
        if (!out_empty(conn)) flush_out(conn);
        if (conn->closing && out_empty(conn)) to_close.push_back(conn_id);
      }
      for (const auto id : to_close) close_connection(id);

      if (any_stream_jobs) {
        for (const auto& [id, conn] : conns) {
          stream_status_tick(conn.get());
          if (!out_empty(conn.get())) flush_out(conn.get());
        }
      }

      // Drained: no connection has a request in flight or bytes unsent.
      if (drain_now && std::ranges::all_of(conns, [this](const auto& c) {
            return c.second->requests.empty() && out_empty(c.second.get());
          })) {
        MutexLock lock(m);
        if (!drain_done) {
          drain_done = true;
          cv.notify_all();
        }
      }
    }
  }
};

Server::Server(service::SolveService& service, ServerConfig config)
    : impl_(std::make_unique<Impl>(service, std::move(config))) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  if (impl_->started) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  if (impl_->config.listen.empty()) {
    if (error != nullptr) *error = "no listen endpoints configured";
    return false;
  }
  for (const auto& endpoint : impl_->config.listen) {
    auto sock = listen_on(endpoint, error);
    if (!sock.valid()) {
      impl_->listeners.clear();
      impl_->bound.clear();
      return false;
    }
    set_nonblocking(sock.fd());
    const auto actual = local_endpoint(sock.fd());
    impl_->bound.push_back(actual.value_or(endpoint));
    impl_->listeners.push_back(std::move(sock));
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    if (error != nullptr) *error = "cannot create wake pipe";
    impl_->listeners.clear();
    impl_->bound.clear();
    return false;
  }
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  set_nonblocking(impl_->wake_read);
  set_nonblocking(impl_->wake_write);
  impl_->started = true;
  impl_->reactor = std::thread([impl = impl_.get()] { impl->reactor_loop(); });
  return true;
}

std::vector<Endpoint> Server::endpoints() const { return impl_->bound; }

bool Server::drain(std::chrono::milliseconds deadline) {
  if (!impl_->started) return true;
  {
    MutexLock lock(impl_->m);
    impl_->draining = true;
  }
  impl_->wake();
  return impl_->wait_drained(deadline);
}

void Server::stop() {
  if (!impl_->started) return;
  {
    MutexLock lock(impl_->m);
    if (impl_->stopped) return;
    impl_->stop_requested = true;
  }
  impl_->wake();
  if (impl_->reactor.joinable()) impl_->reactor.join();
  // From here no other thread touches the connection table.  Null the hook
  // indirection FIRST: a kernel finishing late must find no Impl, and the
  // sink mutex makes any hook mid-delivery finish before we tear down.
  impl_->sink->detach();
  while (!impl_->conns.empty()) {
    impl_->close_connection(impl_->conns.begin()->first);
  }
  impl_->listeners.clear();
  if (impl_->wake_read >= 0) ::close(impl_->wake_read);
  if (impl_->wake_write >= 0) ::close(impl_->wake_write);
  impl_->wake_read = impl_->wake_write = -1;
  // Remove Unix socket files so the next daemon start is clean even after
  // an unlucky crash-free-but-unlinked exit.
  for (const auto& endpoint : impl_->bound) {
    if (endpoint.kind == Endpoint::Kind::unix_domain) {
      ::unlink(endpoint.path.c_str());
    }
  }
  {
    MutexLock lock(impl_->m);
    impl_->stopped = true;
  }
  impl_->cv.notify_all();
}

ServerStats Server::stats() const { return impl_->snapshot(); }

}  // namespace qross::net
