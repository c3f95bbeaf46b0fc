#pragma once

// qross::net::Server — the network front end above a SolveService.
//
// One reactor thread owns every socket: it poll()s the listeners, all
// connection fds, and a self-pipe; completions are delivered by
// JobHandle / TuneHandle notify hooks that enqueue (connection, tag) and,
// when the queue was empty, write one byte to the pipe, so the reactor wakes
// without busy-polling and all frame writing stays on one thread (no
// per-connection locking, no torn frames).  Frames collect in a
// per-connection buffer that is flushed once per reactor pass, so a burst of
// results costs about one send(); TCP streams run with TCP_NODELAY so that
// send is never held back by Nagle waiting on the peer's delayed ACK.
//
// One request ledger per connection: every solve job and tune session a
// connection submits sits in one map from tag to request, from admission
// until its terminal frame is queued.  A tag names one in-flight request of
// either kind, so reusing it is refused, and a cancel of the other kind
// finds nothing.  The entry tells the reactor what a completion means (a
// Result, or a tune's trial events and TuneResult), and a disconnect —
// orderly or not — cancels every still-in-flight entry.  A short-lived
// client that dies mid-batch therefore cannot strand work on the queue.
// Results produced by the shared SolveService cache/coalescing still serve
// other connections; ownership scopes the *cancellation*, not the cached
// result.
//
// The server counts into the service's obs::Registry (qross_net_*), the
// only store of its counts: stats(), the Metrics frame and the Prometheus
// scrape read the same instruments.
//
// Draining (SIGTERM path): drain() stops accepting connections and rejects
// new submissions with kErrDraining, but keeps serving until every
// in-flight request has had its terminal frame flushed (or the deadline
// passes); stop() then tears down.  The caller flushes the persistent cache
// after — see tools/qrossd.cpp.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/solve_service.hpp"
#include "solvers/solver.hpp"

namespace qross::service {
class TuneService;
}  // namespace qross::service

namespace qross::net {

/// Maps a wire solver name to a kernel.  Returns null for unknown names
/// (the submission is rejected with kErrUnknownSolver).
using SolverRegistry =
    std::function<solvers::SolverPtr(const std::string& name)>;

/// The built-in registry: sa | da | tabu | pt | qbsolv, default-configured.
solvers::SolverPtr default_solver_registry(const std::string& name);

struct ServerConfig {
  /// Endpoints to listen on; TCP and Unix-domain freely mixed.
  std::vector<Endpoint> listen;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Accept backstop: beyond this many concurrent connections, a new accept
  /// is answered with a kErrServerFull Error frame and closed — the peer
  /// can tell "full, back off and retry" from a network failure.  Per-client
  /// admission quotas and fair-share weights are service-level policy:
  /// configure them on the SolveService (ServiceConfig::max_*_per_client,
  /// client_weights); the server attributes each connection to a client id
  /// (self-reported in Hello, else "conn-N") and passes it through.
  std::size_t max_connections = 256;
  /// Solver-name resolution; tests inject counting/slow solvers here.
  SolverRegistry registry = default_solver_registry;
  /// Tuning front end (borrowed, must outlive the server).  Null = this
  /// daemon serves raw solve jobs only; SubmitTune frames are answered with
  /// kErrTuningUnavailable.  Session concurrency limits live on the
  /// TuneService itself (TuneServiceConfig::max_sessions).
  service::TuneService* tune = nullptr;
};

/// A read of the server's qross_net_* instruments in the service's
/// registry: field `x` is the sample `qross_net_x_total`, except
/// `connections_active` (the gauge `qross_net_connections_active`).  A
/// service fronted by several servers over its lifetime counts them all.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t submits = 0;
  std::uint64_t results_sent = 0;
  std::uint64_t cancels = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t disconnect_cancelled_jobs = 0;  ///< jobs cancelled by hangup
  /// Accepts refused at max_connections — each one was answered with a
  /// kErrServerFull frame before the close, never a silent reset.
  std::uint64_t connections_rejected_full = 0;
  std::uint64_t tune_submits = 0;       ///< tune sessions admitted
  std::uint64_t tune_results_sent = 0;  ///< TuneResult frames queued
  std::uint64_t tune_cancels = 0;       ///< CancelTune requests honoured
  std::uint64_t disconnect_cancelled_tunes = 0;  ///< sessions cancelled by hangup
};

class Server {
 public:
  /// The service must outlive the server.
  Server(service::SolveService& service, ServerConfig config);
  ~Server();  ///< stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds every configured endpoint and starts the reactor thread.
  /// False (with *error filled) if any bind fails; nothing is left bound.
  bool start(std::string* error);

  /// The actually-bound endpoints (an ephemeral TCP port 0 is resolved to
  /// the kernel-assigned port).  Valid after start().
  std::vector<Endpoint> endpoints() const;

  /// Stops accepting and rejects new submissions, then waits until every
  /// in-flight request's terminal frame has been written out (bounded by
  /// `deadline`).  Returns true on a complete drain, false on timeout.
  /// Idempotent; safe before or after stop().
  bool drain(std::chrono::milliseconds deadline);

  /// Cancels remaining in-flight requests, closes every socket, and joins
  /// the reactor.  Idempotent.
  void stop();

  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qross::net
