#pragma once

// Wire protocol of the QROSS network front end.
//
// A frame IS an io/snapshot record — u32 payload size | u32 record type |
// u64 io::record_checksum(version, payload) | payload, all little-endian —
// so the persistence layer's framing, checksum, and codec code is the wire
// encoding (io::RecordType values 16+ are the frame types).  On top of that
// framing:
//
//   * every connection opens with a version-negotiated handshake: the
//     client sends Hello{protocol_version}, the server answers
//     HelloAck{accepted version, frame size limit} or an Error frame for a
//     FUTURE version (a newer client must not guess at an older server's
//     semantics; it sees the server's version in the error and may retry
//     lower).  Hello, HelloAck and any Error frame before HelloAck carry
//     the kHandshakeVersion (v1) checksum; every later frame on the
//     connection carries the accepted version's.  Within a version,
//     unknown frame types get an Error reply but do not kill the
//     connection — mirroring the snapshot scanner's skip-unknown-records
//     rule;
//   * requests carry a client-chosen u64 tag echoed by every reply, so one
//     connection multiplexes many in-flight jobs;
//   * malformed framing (bad checksum, oversized or truncated frame) is a
//     STREAM error: the server sends a final Error frame and closes — once
//     framing is lost, resynchronisation on a socket is impossible.
//
// Versioning rules (mirrors io/snapshot): kProtocolVersion only ever
// increments; frame types and payload fields are append-only within a
// version; a server keeps accepting every older version it ever shipped.
// Version 2 changed only the frame checksum (io::checksum64_v2).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/snapshot.hpp"
#include "problems/tsp/instance.hpp"
#include "qubo/batch.hpp"
#include "qubo/model.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"

namespace qross::net {

inline constexpr std::uint32_t kProtocolVersion = 2;
/// The version whose checksum frames the handshake (Hello, HelloAck, and
/// any Error frame before HelloAck), whatever version the peers negotiate.
inline constexpr std::uint32_t kHandshakeVersion = 1;
/// Frames larger than this are rejected with kErrOversizedFrame before the
/// payload is buffered — a corrupt length field must not allocate 256 MiB.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;  // 64 MiB

/// Error codes carried by kRecordNetError.  Part of the protocol: never
/// renumber, only add.
enum ErrorCode : std::uint32_t {
  kErrUnknown = 0,
  kErrFutureVersion = 1,   ///< Hello offered a version newer than ours
  kErrBadFrame = 2,        ///< checksum mismatch or undecodable payload
  kErrOversizedFrame = 3,  ///< frame length beyond kMaxFrameBytes
  kErrTruncatedFrame = 4,  ///< connection ended inside a frame
  kErrBadRequest = 5,      ///< well-formed frame, invalid content
  kErrUnknownSolver = 6,   ///< SubmitJob named a solver not in the registry
  kErrUnknownTag = 7,      ///< CancelJob for a tag with no in-flight job
  kErrDraining = 8,        ///< server is shutting down; no new submissions
  kErrHandshakeRequired = 9,  ///< request frame before Hello
  kErrUnknownType = 10,    ///< unrecognised frame type (future extension)
  kErrQuotaExceeded = 11,  ///< client over an admission quota (permanent
                           ///< until its own earlier jobs finish)
  kErrServerFull = 12,     ///< connection refused: max_connections reached,
                           ///< or the tune service is at max concurrent
                           ///< sessions (retryable once capacity frees up)
  kErrTuningUnavailable = 13,  ///< SubmitTune on a daemon with no tuner
                               ///< loaded (permanent: start qrossd --tuner)
};

/// Retryable errors describe transient SERVER state: backing off and
/// resubmitting the identical request can succeed.  Everything else is
/// wrong with the request (or this client's own standing) and retrying
/// verbatim only hammers the server — see Client's resubmit loop.
inline bool is_retryable_error(std::uint32_t code) {
  return code == kErrDraining || code == kErrServerFull;
}

struct HelloFrame {
  std::uint32_t protocol_version = kProtocolVersion;
  /// Self-reported identity for admission quotas / fair-share scheduling.
  /// Appended within protocol v1 (fields are append-only): servers accept a
  /// Hello without it, and assign a per-connection id ("conn-N") when it is
  /// absent or empty.  Multiple connections naming the same id share one
  /// quota/weight bucket.  NOT authentication — see ROADMAP.
  std::string client_id;
};

struct HelloAckFrame {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
};

struct ErrorFrame {
  std::uint64_t tag = 0;  ///< offending request's tag; 0 for stream errors
  std::uint32_t code = kErrUnknown;
  /// The server's own protocol version rides along so a kErrFutureVersion
  /// client knows what to downgrade to.
  std::uint32_t protocol_version = kProtocolVersion;
  std::string message;
};

struct SubmitJobFrame {
  std::uint64_t tag = 0;
  std::string solver = "da";  ///< registry name: sa | da | tabu | pt | qbsolv
  std::uint32_t num_replicas = 32;
  std::uint32_t num_sweeps = 100;
  std::uint64_t seed = 1;
  std::int32_t priority = 0;
  /// Relative deadline in ms (steady clocks do not cross machines); 0 =
  /// none.  The server anchors it at frame receipt.
  std::uint32_t deadline_ms = 0;
  bool bypass_cache = false;
  /// Stream JobStatus frames on queued→running transitions (the terminal
  /// transition is always reported, as the Result frame).
  bool stream_status = false;
  qubo::QuboModel model;
  /// Client-chosen trace correlation id (0 = none).  Appended within
  /// protocol v1: old clients simply never send one, old servers ignore the
  /// tail.  The server stamps it on every obs::TraceRecorder event of this
  /// job, so a GetTrace dump stitches into the caller's own trace.
  std::uint64_t trace_id = 0;
};

struct JobStatusFrame {
  std::uint64_t tag = 0;
  service::JobStatus status = service::JobStatus::queued;
};

struct CancelJobFrame {
  std::uint64_t tag = 0;
};

struct ResultFrame {
  std::uint64_t tag = 0;
  service::JobStatus status = service::JobStatus::done;
  bool cache_hit = false;
  bool coalesced = false;
  double wait_ms = 0.0;
  double run_ms = 0.0;
  std::string error;  ///< non-empty when status == failed
  /// Null when the job never produced a batch (expired before start,
  /// cancelled while queued, failed).
  std::shared_ptr<const qubo::SolveBatch> batch;
};

// --- tuning-as-a-service frames ---------------------------------------------
//
// A tune session is the paper's product: `trials` budgeted solver calls
// steered by the surrogate (strategy MFS | PBS | OFS, or the composed
// benchmark mixture).  The instance rides as its symmetric distance matrix
// packed into the existing QuboModel codec (upper-triangular, IEEE-exact),
// so no new payload format is needed and the decoded instance is
// bit-identical — a remote session with the same seed reproduces the exact
// in-process probed-A sequence and outcome.

/// TuneOptions::mode on the wire.
enum TuneStrategyCode : std::uint8_t {
  kTuneComposed = 0,
  kTuneMfs = 1,
  kTunePbs = 2,
  kTuneOfs = 3,
};

struct SubmitTuneFrame {
  std::uint64_t tag = 0;
  std::string solver = "da";  ///< registry name: sa | da | tabu | pt | qbsolv
  std::uint8_t strategy = kTuneComposed;
  double pf_target = 0.8;  ///< used when strategy == kTunePbs
  std::uint32_t trials = 10;
  double a_min = 1.0;
  double a_max = 100.0;
  std::uint64_t seed = 1;
  /// Symmetric TSP distance matrix: instance.coefficient(i, j) = d(i, j)
  /// for i < j; num_vars = city count; diagonal/offset unused.
  qubo::QuboModel instance;
  // Appended within protocol v1; decoders default them when absent.
  std::uint64_t trace_id = 0;
  std::string instance_name;  ///< corpus / trace label; may be empty
};

/// Streamed by the server after every completed trial.
struct TuneStatusFrame {
  std::uint64_t tag = 0;
  std::uint32_t trial = 0;  ///< 0-based index of the completed trial
  std::uint32_t total = 0;  ///< the session's trial budget
  double relaxation_parameter = 0.0;  ///< probed A
  double pf = 0.0;
  double best_length = 0.0;  ///< best feasible length so far; +inf if none
  // Appended within protocol v1; decoders default them when absent.
  double energy_avg = 0.0;
  double energy_std = 0.0;
  bool feasible = false;
};

struct CancelTuneFrame {
  std::uint64_t tag = 0;
};

/// TuneSessionResult::status on the wire.
enum TuneSessionCode : std::uint8_t {
  kTuneDone = 0,
  kTuneCancelled = 1,
  kTuneFailed = 2,
};

struct TuneResultFrame {
  std::uint64_t tag = 0;
  std::uint8_t status = kTuneDone;
  std::string error;  ///< non-empty when status == kTuneFailed
  double best_length = 0.0;     ///< +inf when no feasible solution
  double best_parameter = 0.0;  ///< A of the winning trial
  std::vector<std::uint32_t> best_tour;  ///< empty when infeasible
  struct Trial {
    double relaxation_parameter = 0.0;
    double pf = 0.0;
    double best_length_so_far = 0.0;
  };
  std::vector<Trial> trials;
  // Appended within protocol v1; decoders default them when absent.
  std::uint64_t solver_invocations = 0;  ///< actual kernel runs (0 = all
                                         ///< probes replayed from cache)
  double wall_ms = 0.0;
};

/// Service-wide counters plus the serving side of the connection's own
/// ledger (what THIS connection submitted / was sent).
struct MetricsFrame {
  service::ServiceMetrics service;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t connection_submitted = 0;  ///< submits on this connection
  std::uint64_t connection_results = 0;    ///< results sent back on it
  std::uint64_t connection_cancelled = 0;  ///< cancels it requested
  // Appended within protocol v1; decoders default them when absent.
  std::uint64_t connections_rejected_full = 0;  ///< accepts refused: kErrServerFull
  std::string client_id;  ///< the id this connection is accounted under
  /// Per-client scheduler rows (service.clients on the wire).  The
  /// service-level vector rides here rather than inside `service` so the
  /// pre-quota payload layout stays a strict prefix.
  std::vector<service::ClientSchedulerMetrics> clients;
};

// --- payload codecs ---------------------------------------------------------
//
// Encoders produce the payload only; frame() wraps it in record framing.
// Decoders throw io::DecodeError on malformed payloads (callers convert
// that into kErrBadFrame).

std::vector<std::uint8_t> encode_hello(const HelloFrame& hello);
HelloFrame decode_hello(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_hello_ack(const HelloAckFrame& ack);
HelloAckFrame decode_hello_ack(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_error(const ErrorFrame& error);
ErrorFrame decode_error(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_submit(const SubmitJobFrame& submit);
SubmitJobFrame decode_submit(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_job_status(const JobStatusFrame& status);
JobStatusFrame decode_job_status(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_cancel(const CancelJobFrame& cancel);
CancelJobFrame decode_cancel(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_result(const ResultFrame& result);
ResultFrame decode_result(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_metrics(const MetricsFrame& metrics);
MetricsFrame decode_metrics(std::span<const std::uint8_t> payload);

/// The SubmitTuneFrame instance transport convention, in one place for both
/// ends: the symmetric distance matrix rides as upper-triangular QuboModel
/// coefficients (IEEE-exact), so pack → encode → decode → unpack reproduces
/// the matrix bit-identically and server-side feature extraction (which
/// needs only distances, never coordinates) matches the client's instance.
qubo::QuboModel pack_tsp_instance(const tsp::TspInstance& instance);
tsp::TspInstance unpack_tsp_instance(const qubo::QuboModel& model,
                                     std::string name);

std::vector<std::uint8_t> encode_submit_tune(const SubmitTuneFrame& submit);
SubmitTuneFrame decode_submit_tune(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_tune_status(const TuneStatusFrame& status);
TuneStatusFrame decode_tune_status(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_cancel_tune(const CancelTuneFrame& cancel);
CancelTuneFrame decode_cancel_tune(std::span<const std::uint8_t> payload);

std::vector<std::uint8_t> encode_tune_result(const TuneResultFrame& result);
TuneResultFrame decode_tune_result(std::span<const std::uint8_t> payload);

// GetTrace / GetProm requests carry an empty payload (like GetMetrics).
// Their replies — TraceDump (Chrome trace-event JSON) and PromText
// (Prometheus exposition) — carry the text as the raw frame payload, NOT a
// length-prefixed string: the per-string decode cap (1 MiB) is far below a
// busy daemon's trace dump, while the frame length field already bounds the
// payload at kMaxFrameBytes.
std::vector<std::uint8_t> encode_text(const std::string& text);
std::string decode_text(std::span<const std::uint8_t> payload);

/// Wraps a payload in record framing, ready to send, with the checksum of
/// protocol `version`.  A frame's size does not depend on its version.
std::vector<std::uint8_t> frame(std::uint32_t type,
                                std::span<const std::uint8_t> payload,
                                std::uint32_t version = kHandshakeVersion);

/// Appends the framed record to `out` — byte for byte what frame() returns,
/// without the temporary — so a send buffer collects many frames and goes
/// out in one write.
void append_frame(std::vector<std::uint8_t>& out, std::uint32_t type,
                  std::span<const std::uint8_t> payload,
                  std::uint32_t version = kHandshakeVersion);

// --- incremental frame splitter ---------------------------------------------

/// One parsed frame: the record type plus its verified payload.
struct Frame {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
};

/// Reassembles frames from a byte stream.  Feed received bytes with
/// append(); drain complete frames with next().  Unlike the snapshot
/// scanner, a socket cannot skip-and-resync past a bad record (there is no
/// trailing data to re-anchor on), so the first framing violation latches a
/// terminal error state.
///
/// next() verifies each frame with the checksum of version(): a stream
/// starts at kHandshakeVersion, and its owner calls set_version() once the
/// handshake settles, so the frames after it verify at the negotiated
/// version.  The owner also frames what it sends at version(), which makes
/// the buffer the connection's one record of its version.
class FrameBuffer {
 public:
  enum class Status {
    need_more,   ///< no complete frame buffered yet
    frame,       ///< *out filled with the next verified frame
    bad_frame,   ///< checksum mismatch — stream integrity lost
    oversized,   ///< length field beyond the limit — stream unusable
  };

  explicit FrameBuffer(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void append(const std::uint8_t* data, std::size_t size);

  Status next(Frame* out);

  std::uint32_t version() const { return version_; }
  void set_version(std::uint32_t version) { version_ = version; }

  /// True when bytes of an incomplete frame are sitting in the buffer —
  /// an EOF now means the peer died mid-frame (kErrTruncatedFrame).
  bool mid_frame() const { return buffer_.size() > consumed_; }

 private:
  std::uint32_t max_frame_bytes_;
  std::uint32_t version_ = kHandshakeVersion;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // compacted lazily
  bool broken_ = false;
};

}  // namespace qross::net
