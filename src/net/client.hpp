#pragma once

// Blocking client for the QROSS network protocol.
//
// One connection multiplexes many in-flight requests by tag: submit_job()
// and submit_tune() assign a tag, encode the request once and send it;
// wait_result(tag) / tune_wait(tag) block until that tag's terminal frame
// arrives (buffering frames for other tags they read along the way).
//
// Every in-flight request, job or tune session, is one entry of a single
// ledger: its frame type and encoded payload.  A resubmit (after a
// reconnect or a retryable refusal) resends those stored bytes verbatim.
//
// Resilience:
//   * reconnect — a send/recv failure triggers up to reconnect_attempts
//     redials (with backoff); after the re-handshake every still-pending
//     request is RESUBMITTED.  Safe because submissions are idempotent on
//     the serving side: equal fingerprints coalesce or hit the result
//     cache, so a retried job never pays a second solver run;
//   * error triage — a RETRYABLE server refusal (kErrDraining,
//     kErrServerFull: transient server state) keeps the request pending;
//     the wait backs off and resubmits it up to reconnect_attempts times
//     within the request timeout.  A PERMANENT refusal (kErrQuotaExceeded,
//     kErrBadRequest, kErrUnknownSolver, ...) fails the request on the
//     first Error frame — resubmitting an unacceptable request verbatim can
//     never succeed and only hammers the server;
//   * request timeout — a wait gives up after request_timeout_ms with a
//     timeout RemoteError, leaving the connection usable for other tags.
//
// Not thread-safe: one Client per thread (the protocol itself supports any
// number of concurrent Clients per server).
//
// API surface: one call per task.  The typed methods (submit_job,
// wait_result, submit_tune, tune_wait, fetch_*) all report failure through
// one RemoteOutcome / RemoteError shape, with retryability decided in
// exactly one place (is_retryable_error via RemoteError::retryable).  run()
// is the one convenience on top: a whole batch, with transport failures
// folded into failed ResultFrames.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace qross::net {

struct ClientConfig {
  Endpoint server;
  /// Identity sent in the Hello, grouping this connection with others of
  /// the same name for the server's admission quotas / fair-share weights.
  /// Empty = the server assigns a per-connection id.
  std::string client_id;
  int connect_timeout_ms = 5000;
  int request_timeout_ms = 120000;
  /// Bounds both reconnect redials and retryable-refusal resubmits.
  int reconnect_attempts = 3;
  int reconnect_backoff_ms = 100;
};

/// One job as the client submits it: the SubmitJob frame itself.
/// submit_job() encodes it as given and writes its own tag over the
/// payload's leading `tag` field.
using RemoteJob = SubmitJobFrame;

/// One tune session as the client requests it: the SubmitTune frame
/// itself, tagged like a job.  Pack the instance with pack_tsp_instance().
using RemoteTune = SubmitTuneFrame;

/// How a request failed, transport-wise.  Job/session-level failures (a
/// solver that threw, an infeasible outcome) are NOT errors here — they
/// arrive inside the Result/TuneResult frame, keeping one taxonomy per
/// layer.
enum class RemoteErrorKind : std::uint8_t {
  connection = 0,  ///< dial, handshake, or socket failure; redial may help
  timeout = 1,     ///< request_timeout_ms expired
  refused = 2,     ///< the server answered with an Error frame (see `code`)
  usage = 3,       ///< caller misuse (e.g. waiting on a tag never submitted)
};

const char* to_string(RemoteErrorKind kind);

struct RemoteError {
  RemoteErrorKind kind = RemoteErrorKind::connection;
  /// The server's ErrorCode when kind == refused; kErrUnknown otherwise.
  std::uint32_t code = kErrUnknown;
  std::string message;

  /// THE retry triage point.  Refusals delegate to is_retryable_error()
  /// (the protocol's one definition of transient server state); connection
  /// failures are retryable by redial; timeouts and misuse are not.
  bool retryable() const {
    switch (kind) {
      case RemoteErrorKind::refused: return is_retryable_error(code);
      case RemoteErrorKind::connection: return true;
      case RemoteErrorKind::timeout: return false;
      case RemoteErrorKind::usage: return false;
    }
    return false;
  }
};

/// Value-or-RemoteError result of every typed client call.
template <typename T>
class RemoteOutcome {
 public:
  RemoteOutcome(T value) : value_(std::move(value)) {}          // NOLINT
  RemoteOutcome(RemoteError error) : error_(std::move(error)) {}  // NOLINT

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Throws std::bad_optional_access when !ok() — check first.
  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  /// Meaningful only when !ok().
  const RemoteError& error() const { return error_; }

 private:
  std::optional<T> value_;
  RemoteError error_;
};

class Client {
 public:
  explicit Client(ClientConfig config);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Dials and handshakes.  False (with *error filled) on failure — also
  /// when the server refuses our protocol version.
  bool connect(std::string* error);

  bool connected() const { return sock_.valid(); }

  /// Protocol version the server acknowledged (after connect()).
  std::uint32_t negotiated_version() const { return ack_.protocol_version; }

  // --- typed core -------------------------------------------------------

  /// Sends one job; the tag to wait on.
  RemoteOutcome<std::uint64_t> submit_job(const RemoteJob& job);

  /// Blocks until `tag` completes.  Transport failures (timeout, dead
  /// connection, permanent refusal) are the RemoteError side; a job the
  /// SERVER completed as failed is still a success here — its failure rides
  /// inside the frame.
  RemoteOutcome<ResultFrame> wait_result(std::uint64_t tag);

  /// Starts a tune session on the server; the tag to wait on.  Retryable
  /// refusals (draining, session quota → kErrServerFull) are handled like
  /// job refusals: tune_wait() backs off and resubmits.
  RemoteOutcome<std::uint64_t> submit_tune(const RemoteTune& tune);

  /// Blocks until the tune session's TuneResult frame arrives (same error
  /// contract as wait_result).  A cancelled or failed session is a SUCCESS
  /// carrying status kTuneCancelled / kTuneFailed.
  RemoteOutcome<TuneResultFrame> tune_wait(std::uint64_t tag);

  /// Per-trial TuneStatus frames streamed so far for `tag`, in order.  Kept
  /// after tune_wait() returns, until forget(tag).
  std::vector<TuneStatusFrame> tune_status(std::uint64_t tag) const;

  /// Requests cancellation of an in-flight tune session; the terminal
  /// TuneResult (status = cancelled) still arrives via tune_wait().
  bool cancel_tune(std::uint64_t tag);

  /// Round-trips a GetMetrics request.
  RemoteOutcome<MetricsFrame> fetch_metrics();
  /// Round-trips a GetTrace request: the server's trace buffer as Chrome
  /// trace-event JSON.  Empty trace (`"traceEvents":[]`) when the daemon
  /// never enabled tracing; a refusal from a pre-obs server, which answers
  /// kErrUnknownType.
  RemoteOutcome<std::string> fetch_trace();
  /// Round-trips a GetProm request: the server's metrics registry in
  /// Prometheus text exposition format.  Same failure contract as above.
  RemoteOutcome<std::string> fetch_prometheus();

  /// Requests cancellation of an in-flight tag.
  bool cancel(std::uint64_t tag);

  /// Status updates streamed so far for `tag` (stream_status jobs only).
  std::vector<service::JobStatus> status_updates(std::uint64_t tag) const;

  /// Convenience: submit every job, then wait for each in order.  A
  /// transport failure (submit or wait) comes back as a ResultFrame with
  /// status `failed` and the reason in `error` — the protocol carries real
  /// failures the same way, so callers have one error path.
  std::vector<ResultFrame> run(const std::vector<RemoteJob>& jobs);

  /// Wire-level errors the server pushed that were not fatal to a request
  /// (e.g. kErrUnknownTag); drained by the caller.
  std::vector<ErrorFrame> take_errors();

  // --- open-loop pumping (src/load/ replayer interface) -----------------
  //
  // An open-loop caller owns its own arrival schedule: it must never block
  // on one tag (wait_result) or let the client resubmit refused jobs behind
  // its back — a shed job IS the measurement.  These three calls expose the
  // frame pump directly: poll() routes whatever arrives within a bounded
  // wait, take_ready_results() drains every buffered terminal frame, and
  // forget() drops client-side state for tags the caller classified itself
  // (e.g. a quota refusal counted as shed) so nothing is ever resubmitted.

  /// One bounded pump step: routes every frame that arrives within
  /// timeout_ms, waiting on no particular tag and never redialling or
  /// resubmitting.  True on progress OR a quiet timeout; false only when
  /// the connection is lost or the stream is malformed (*error filled).
  bool poll(int timeout_ms, std::string* error = nullptr);

  /// Drains every buffered terminal ResultFrame (any tag), in tag order.
  std::vector<ResultFrame> take_ready_results();

  /// Drops all client-side state for `tag`, job or tune session (pending
  /// request, buffered terminal frame or refusal, status updates).  For
  /// tags that will never be waited on, or to release a session's
  /// TuneStatus history once the caller is done with it.
  void forget(std::uint64_t tag);

 private:
  /// One in-flight submit: the encoded SubmitJob / SubmitTune payload,
  /// resent verbatim on every resubmit.
  struct Request {
    std::uint32_t type = 0;  ///< kRecordNetSubmitJob | kRecordNetSubmitTune
    std::vector<std::uint8_t> payload;
    bool retry_wanted = false;  ///< refused with a RETRYABLE code
    int attempts = 0;           ///< retryable-refusal resubmits so far
  };

  /// Decodes and routes every complete frame already buffered in in_.
  /// Returns the number handled, or -1 on a malformed stream.
  int drain_buffered_frames(std::string* error);
  bool send_frame(std::uint32_t type, std::span<const std::uint8_t> payload);
  /// Reads until the stop condition holds, the timeout expires, or the
  /// connection breaks; buffers everything it routes.  With `stop_tag` != 0
  /// (tags start at 1) it waits on that request: it stops once the tag
  /// leaves the ledger or is flagged for a retry.  Otherwise it stops on
  /// the first `stop_type` frame and fails on an Error frame.
  bool pump(std::uint32_t stop_type, std::uint64_t stop_tag, int timeout_ms,
            std::string* error);
  bool handshake(std::string* error);
  bool reconnect_and_resubmit(std::string* error);
  /// Stamps a fresh tag over the payload's leading u64, enters it in the
  /// ledger and sends it.
  RemoteOutcome<std::uint64_t> submit(std::uint32_t type,
                                      std::vector<std::uint8_t> payload);
  /// The one wait loop: blocks until `tag`, a pending `type` submit, leaves
  /// the ledger (its terminal frame or permanent refusal is buffered),
  /// backing off and resubmitting retryable refusals and redialling lost
  /// connections within request_timeout_ms.  nullopt once the tag has left
  /// the ledger; else the failure, with the tag dropped.
  std::optional<RemoteError> await(std::uint64_t tag, std::uint32_t type);
  void handle_incoming(const Frame& f);
  /// Classifies a failed round-trip: an Error frame that arrived during the
  /// request (errors_ grew past `errors_before`) makes it a refusal carrying
  /// the server's code; otherwise the pump's message decides timeout vs
  /// connection.
  RemoteError request_error(std::size_t errors_before,
                            const std::string& message) const;
  /// One GetX → X round-trip (metrics / trace / prom share the shape);
  /// nullopt on success — handle_incoming routed the reply into its last_*
  /// slot — else the classified failure.
  std::optional<RemoteError> round_trip(std::uint32_t request_type,
                                        std::uint32_t reply_type);

  ClientConfig config_;
  Socket sock_;
  FrameBuffer in_;
  /// Reused send buffer: send_frame frames into it (at in_.version()), so a
  /// request costs no allocation once its capacity has grown to the largest
  /// frame sent.
  std::vector<std::uint8_t> out_;
  HelloAckFrame ack_;
  std::uint64_t next_tag_ = 1;

  /// The ledger: every submitted tag until its terminal frame or refusal.
  std::map<std::uint64_t, Request> pending_;
  // Terminal frames by kind.  A permanent job refusal lands in results_ as
  // a synthesized failed frame, a permanent tune refusal as a typed error.
  std::map<std::uint64_t, ResultFrame> results_;
  std::map<std::uint64_t, TuneResultFrame> tune_results_;
  std::map<std::uint64_t, RemoteError> tune_failures_;
  std::map<std::uint64_t, std::vector<service::JobStatus>> updates_;
  std::map<std::uint64_t, std::vector<TuneStatusFrame>> tune_updates_;
  std::optional<MetricsFrame> last_metrics_;
  std::optional<std::string> last_trace_;
  std::optional<std::string> last_prom_;
  std::vector<ErrorFrame> errors_;
};

}  // namespace qross::net
