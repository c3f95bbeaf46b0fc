#include "net/client.hpp"

#include <chrono>
#include <thread>

#include "io/binary.hpp"

namespace qross::net {

using Clock = std::chrono::steady_clock;

const char* to_string(RemoteErrorKind kind) {
  switch (kind) {
    case RemoteErrorKind::connection: return "connection";
    case RemoteErrorKind::timeout: return "timeout";
    case RemoteErrorKind::refused: return "refused";
    case RemoteErrorKind::usage: return "usage";
  }
  return "?";
}

Client::Client(ClientConfig config) : config_(std::move(config)) {}

Client::~Client() = default;

bool Client::handshake(std::string* error) {
  in_ = FrameBuffer();  // a fresh connection starts a fresh stream
  HelloFrame hello;
  hello.client_id = config_.client_id;
  if (!send_frame(io::kRecordNetHello, encode_hello(hello))) {
    if (error != nullptr) *error = "cannot send Hello";
    return false;
  }
  if (!pump(io::kRecordNetHelloAck, 0, config_.connect_timeout_ms, error)) {
    return false;
  }
  if (ack_.protocol_version == 0 || ack_.protocol_version > kProtocolVersion) {
    if (error != nullptr) {
      *error = "server acknowledged protocol version " +
               std::to_string(ack_.protocol_version) + ", offered " +
               std::to_string(kProtocolVersion);
    }
    return false;
  }
  // pump() stopped right at the HelloAck, so no later frame was verified
  // yet: from here on both directions carry the accepted version.
  in_.set_version(ack_.protocol_version);
  return true;
}

bool Client::connect(std::string* error) {
  for (int attempt = 0;; ++attempt) {
    const std::size_t errors_before = errors_.size();
    sock_ = connect_to(config_.server, config_.connect_timeout_ms, error);
    if (!sock_.valid()) return false;
    if (handshake(error)) return true;
    sock_.close();
    // kErrServerFull arrives pre-handshake (tag 0) and is the classic
    // RETRYABLE connect failure: the server told us to back off until a
    // slot frees.  Everything else (version refusal, bad ack, a silent
    // close) is final — only an Error frame received during THIS attempt
    // counts, or a stale buffered one would misclassify the failure.
    // Triage delegates to is_retryable_error(), the protocol's single
    // definition of transient server state.
    const bool server_full = errors_.size() > errors_before &&
                             is_retryable_error(errors_.back().code);
    if (!server_full || attempt + 1 >= config_.reconnect_attempts) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        config_.reconnect_backoff_ms * (attempt + 1)));
  }
}

bool Client::send_frame(std::uint32_t type,
                        std::span<const std::uint8_t> payload) {
  if (!sock_.valid()) return false;
  out_.clear();
  append_frame(out_, type, payload, in_.version());
  if (!sock_.send_all(out_.data(), out_.size())) {
    sock_.close();
    return false;
  }
  return true;
}

bool Client::reconnect_and_resubmit(std::string* error) {
  for (int attempt = 0; attempt < config_.reconnect_attempts; ++attempt) {
    if (attempt > 0 || config_.reconnect_backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          config_.reconnect_backoff_ms * (attempt + 1)));
    }
    std::string local_error;
    sock_ = connect_to(config_.server, config_.connect_timeout_ms,
                       &local_error);
    if (!sock_.valid()) {
      if (error != nullptr) *error = local_error;
      continue;
    }
    if (!handshake(&local_error)) {
      sock_.close();
      if (error != nullptr) *error = local_error;
      continue;
    }
    // Resubmit everything still outstanding under its ORIGINAL tag.  The
    // server's cache/coalescing makes the retry cost one lookup, not one
    // solver run, even when the first attempt completed just before the
    // connection died.
    bool resubmitted_all = true;
    for (auto& [tag, request] : pending_) {
      if (!send_frame(request.type, request.payload)) {
        resubmitted_all = false;
        break;
      }
      // Freshly in flight: a tag ALSO flagged for a retryable-refusal
      // resubmit must not be sent a second time — the server would refuse
      // the duplicate tag as a bad request and fail a request that is
      // actually running.
      request.retry_wanted = false;
      if (request.type == io::kRecordNetSubmitTune) {
        // The dead connection's hangup cancelled the session server-side,
        // so the resubmit starts a REPLACEMENT session — the warm probe
        // cache makes its replayed prefix free, and the fresh session
        // streams trials from 0, so the stale progress is dropped.
        tune_updates_[tag].clear();
      }
    }
    if (resubmitted_all) return true;
  }
  if (error != nullptr && error->empty()) {
    *error = "reconnect attempts exhausted";
  }
  return false;
}

RemoteOutcome<std::uint64_t> Client::submit(std::uint32_t type,
                                            std::vector<std::uint8_t> payload) {
  const std::uint64_t tag = next_tag_++;
  // Both submit payloads lead with the tag, little-endian like every wire
  // integer: the caller's own `tag` field is overwritten here.
  for (std::size_t k = 0; k < 8; ++k) {
    payload[k] = static_cast<std::uint8_t>(tag >> (8 * k));
  }
  const Request& request =
      pending_.emplace(tag, Request{type, std::move(payload)}).first->second;
  if (!send_frame(type, request.payload)) {
    // The reconnect path resubmits `tag` itself (it is already pending).
    std::string error;
    if (!reconnect_and_resubmit(&error)) {
      pending_.erase(tag);
      return RemoteError{RemoteErrorKind::connection, kErrUnknown, error};
    }
  }
  return tag;
}

RemoteOutcome<std::uint64_t> Client::submit_job(const RemoteJob& job) {
  return submit(io::kRecordNetSubmitJob, encode_submit(job));
}

RemoteOutcome<std::uint64_t> Client::submit_tune(const RemoteTune& tune) {
  return submit(io::kRecordNetSubmitTune, encode_submit_tune(tune));
}

void Client::handle_incoming(const Frame& f) {
  try {
    switch (f.type) {
      case io::kRecordNetResult: {
        auto result = decode_result(f.payload);
        const auto tag = result.tag;
        pending_.erase(tag);
        results_.emplace(tag, std::move(result));
        return;
      }
      case io::kRecordNetJobStatus: {
        const auto status = decode_job_status(f.payload);
        updates_[status.tag].push_back(status.status);
        return;
      }
      case io::kRecordNetTuneStatus: {
        auto status = decode_tune_status(f.payload);
        tune_updates_[status.tag].push_back(std::move(status));
        return;
      }
      case io::kRecordNetTuneResult: {
        auto result = decode_tune_result(f.payload);
        const auto tag = result.tag;
        pending_.erase(tag);
        tune_results_.emplace(tag, std::move(result));
        return;
      }
      case io::kRecordNetMetrics:
        last_metrics_ = decode_metrics(f.payload);
        return;
      case io::kRecordNetTraceDump:
        last_trace_ = decode_text(f.payload);
        return;
      case io::kRecordNetPromText:
        last_prom_ = decode_text(f.payload);
        return;
      case io::kRecordNetError: {
        auto error = decode_error(f.payload);
        const auto it =
            error.tag == 0 ? pending_.end() : pending_.find(error.tag);
        if (it != pending_.end()) {
          if (is_retryable_error(error.code)) {
            // Transient server state (draining / full): keep the request
            // pending; the wait loop backs off and resubmits it.
            it->second.retry_wanted = true;
          } else {
            // Permanent refusal (quota, bad request, unknown solver, no
            // tuner).  Known edge: a reconnect's resubmits can race the
            // server noticing the dead predecessor connection (whose hangup
            // is what frees this client's inflight quota), so a quota
            // refusal here may be transient in that narrow window.  The
            // taxonomy still wins — retrying quota errors in general
            // rewards exactly the flooding the quota exists to stop.  The
            // request completes as failed, so its wait observes it instead
            // of timing out — and never resubmits it.
            std::string message = "server error " +
                                  std::to_string(error.code) + ": " +
                                  error.message;
            if (it->second.type == io::kRecordNetSubmitJob) {
              ResultFrame result;
              result.tag = error.tag;
              result.status = service::JobStatus::failed;
              result.error = std::move(message);
              results_.emplace(error.tag, std::move(result));
            } else {
              tune_failures_.emplace(
                  error.tag, RemoteError{RemoteErrorKind::refused, error.code,
                                         std::move(message)});
            }
            pending_.erase(it);
          }
        }
        errors_.push_back(std::move(error));
        return;
      }
      case io::kRecordNetHelloAck:
        ack_ = decode_hello_ack(f.payload);
        return;
      default:
        return;  // unknown frame types are tolerated, mirroring the server
    }
  } catch (const io::DecodeError&) {
    // A checksum-valid but undecodable frame: drop it; the stream framing
    // is still intact.
  }
}

bool Client::pump(std::uint32_t stop_type, std::uint64_t stop_tag,
                  int timeout_ms, std::string* error) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(
                         timeout_ms < 0 ? 24 * 3600 * 1000 : timeout_ms);
  std::uint8_t buf[65536];
  while (true) {
    // Check the stop condition against everything already buffered first.
    Frame f;
    while (true) {
      const auto status = in_.next(&f);
      if (status == FrameBuffer::Status::need_more) break;
      if (status != FrameBuffer::Status::frame) {
        if (error != nullptr) *error = "malformed frame from server";
        sock_.close();
        return false;
      }
      handle_incoming(f);
      if (stop_tag != 0) {
        // The request is terminal (result, or a refusal that killed it),
        // or the wait loop owns a backoff + resubmit.
        const auto it = pending_.find(stop_tag);
        if (it == pending_.end() || it->second.retry_wanted) return true;
        continue;
      }
      if (f.type == stop_type) return true;
      if (f.type == io::kRecordNetError) {
        // Waiting for an ack/metrics and got an error instead: surface it.
        if (error != nullptr && !errors_.empty()) {
          *error = "server error " + std::to_string(errors_.back().code) +
                   ": " + errors_.back().message;
        }
        return false;
      }
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) {
      if (error != nullptr) *error = "request timed out";
      return false;
    }
    const long n = sock_.recv_some(
        buf, sizeof(buf), static_cast<int>(remaining.count()));
    if (n == -2) {
      if (error != nullptr) *error = "request timed out";
      return false;
    }
    if (n <= 0) {
      if (error != nullptr) *error = "connection lost";
      sock_.close();
      return false;
    }
    in_.append(buf, static_cast<std::size_t>(n));
  }
}

namespace {

RemoteError unknown_tag() {
  return RemoteError{RemoteErrorKind::usage, kErrUnknown,
                     "unknown tag: never submitted or already waited"};
}

}  // namespace

std::optional<RemoteError> Client::await(std::uint64_t tag,
                                         std::uint32_t type) {
  const auto fail = [&](RemoteErrorKind kind, std::string message) {
    pending_.erase(tag);
    return RemoteError{kind, kErrUnknown, std::move(message)};
  };
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.request_timeout_ms);
  while (true) {
    const auto it = pending_.find(tag);
    if (it == pending_.end()) return std::nullopt;
    if (it->second.type != type) return unknown_tag();
    Request& request = it->second;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now());
    if (remaining.count() <= 0) {
      return fail(RemoteErrorKind::timeout, "request timed out");
    }
    if (request.retry_wanted) {
      // The server refused this tag with a RETRYABLE code (draining /
      // full): back off, then resend the stored request under its original
      // tag — idempotent server-side via cache/coalescing, and a refused
      // session never started, so its resubmit opens the SAME session.
      request.retry_wanted = false;
      const int attempt = ++request.attempts;
      if (attempt > config_.reconnect_attempts) {
        return fail(RemoteErrorKind::refused,
                    "server refused " + std::to_string(attempt - 1) +
                        " resubmits (busy or draining); giving up");
      }
      const auto backoff =
          std::chrono::milliseconds(config_.reconnect_backoff_ms * attempt);
      if (backoff >= remaining) {
        // No budget left to wait out the refusal — and resubmitting now
        // would orphan a request on the server that nobody will collect.
        return fail(RemoteErrorKind::timeout, "request timed out");
      }
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      if (!send_frame(request.type, request.payload)) {
        std::string reconnect_error;
        if (!reconnect_and_resubmit(&reconnect_error)) {
          return fail(RemoteErrorKind::connection,
                      "connection lost: " + reconnect_error);
        }
      }
      continue;
    }
    std::string error;
    if (!pump(0, tag, static_cast<int>(remaining.count()), &error)) {
      if (error == "request timed out") {
        return fail(RemoteErrorKind::timeout, error);
      }
      // Connection lost mid-wait: redial and resubmit the outstanding
      // requests, then keep waiting out the remaining budget.
      if (!reconnect_and_resubmit(&error)) {
        return fail(RemoteErrorKind::connection, "connection lost: " + error);
      }
    }
  }
}

RemoteOutcome<ResultFrame> Client::wait_result(std::uint64_t tag) {
  if (auto failed = await(tag, io::kRecordNetSubmitJob)) {
    return std::move(*failed);
  }
  auto node = results_.extract(tag);
  if (node.empty()) return unknown_tag();
  return std::move(node.mapped());
}

RemoteOutcome<TuneResultFrame> Client::tune_wait(std::uint64_t tag) {
  if (auto failed = await(tag, io::kRecordNetSubmitTune)) {
    return std::move(*failed);
  }
  if (auto node = tune_results_.extract(tag)) return std::move(node.mapped());
  if (auto node = tune_failures_.extract(tag)) return std::move(node.mapped());
  return unknown_tag();
}

std::vector<TuneStatusFrame> Client::tune_status(std::uint64_t tag) const {
  const auto it = tune_updates_.find(tag);
  return it == tune_updates_.end() ? std::vector<TuneStatusFrame>{}
                                   : it->second;
}

bool Client::cancel(std::uint64_t tag) {
  CancelJobFrame cancel;
  cancel.tag = tag;
  return send_frame(io::kRecordNetCancelJob, encode_cancel(cancel));
}

bool Client::cancel_tune(std::uint64_t tag) {
  CancelTuneFrame cancel;
  cancel.tag = tag;
  return send_frame(io::kRecordNetCancelTune, encode_cancel_tune(cancel));
}

std::vector<service::JobStatus> Client::status_updates(
    std::uint64_t tag) const {
  const auto it = updates_.find(tag);
  return it == updates_.end() ? std::vector<service::JobStatus>{}
                              : it->second;
}

RemoteError Client::request_error(std::size_t errors_before,
                                  const std::string& message) const {
  RemoteError error;
  if (errors_.size() > errors_before) {
    // An Error frame arrived during THIS request: a refusal with the
    // server's code (retryability then flows from is_retryable_error).
    error.kind = RemoteErrorKind::refused;
    error.code = errors_.back().code;
  } else if (message == "request timed out") {
    error.kind = RemoteErrorKind::timeout;
  } else {
    error.kind = RemoteErrorKind::connection;
  }
  error.message = message;
  return error;
}

std::optional<RemoteError> Client::round_trip(std::uint32_t request_type,
                                              std::uint32_t reply_type) {
  const std::size_t errors_before = errors_.size();
  std::string error;
  if (!send_frame(request_type, {})) {
    if (!reconnect_and_resubmit(&error)) {
      RemoteError remote;
      remote.kind = RemoteErrorKind::connection;
      remote.message = error.empty() ? "connection lost" : error;
      return remote;
    }
    if (!send_frame(request_type, {})) {
      RemoteError remote;
      remote.kind = RemoteErrorKind::connection;
      remote.message = "connection lost";
      return remote;
    }
  }
  // A pre-obs server answers GetTrace/GetProm with kErrUnknownType; pump()
  // surfaces that Error frame as a failure for non-Result stop types, so
  // old servers degrade to a typed refusal instead of a hang.
  if (!pump(reply_type, 0, config_.request_timeout_ms, &error)) {
    return request_error(errors_before, error);
  }
  return std::nullopt;
}

RemoteOutcome<MetricsFrame> Client::fetch_metrics() {
  last_metrics_.reset();
  if (auto failed = round_trip(io::kRecordNetGetMetrics,
                               io::kRecordNetMetrics)) {
    return std::move(*failed);
  }
  if (!last_metrics_.has_value()) {
    return RemoteError{RemoteErrorKind::connection, kErrUnknown,
                       "no metrics in reply"};
  }
  return std::move(*last_metrics_);
}

RemoteOutcome<std::string> Client::fetch_trace() {
  last_trace_.reset();
  if (auto failed = round_trip(io::kRecordNetGetTrace,
                               io::kRecordNetTraceDump)) {
    return std::move(*failed);
  }
  if (!last_trace_.has_value()) {
    return RemoteError{RemoteErrorKind::connection, kErrUnknown,
                       "no trace in reply"};
  }
  return std::move(*last_trace_);
}

RemoteOutcome<std::string> Client::fetch_prometheus() {
  last_prom_.reset();
  if (auto failed = round_trip(io::kRecordNetGetProm,
                               io::kRecordNetPromText)) {
    return std::move(*failed);
  }
  if (!last_prom_.has_value()) {
    return RemoteError{RemoteErrorKind::connection, kErrUnknown,
                       "no exposition in reply"};
  }
  return std::move(*last_prom_);
}

std::vector<ResultFrame> Client::run(const std::vector<RemoteJob>& jobs) {
  std::vector<ResultFrame> results(jobs.size());
  std::vector<std::pair<std::size_t, std::uint64_t>> submitted;
  submitted.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const auto tag = submit_job(jobs[k]);
    if (!tag.ok()) {
      results[k].status = service::JobStatus::failed;
      results[k].error = "submit failed: " + tag.error().message;
      continue;
    }
    submitted.emplace_back(k, tag.value());
  }
  for (const auto& [index, tag] : submitted) {
    auto outcome = wait_result(tag);
    if (outcome.ok()) {
      results[index] = std::move(outcome).value();
    } else {
      results[index].tag = tag;
      results[index].status = service::JobStatus::failed;
      results[index].error = outcome.error().message;
    }
  }
  return results;
}

std::vector<ErrorFrame> Client::take_errors() {
  auto drained = std::move(errors_);
  errors_.clear();
  return drained;
}

int Client::drain_buffered_frames(std::string* error) {
  int handled = 0;
  Frame f;
  while (true) {
    const auto status = in_.next(&f);
    if (status == FrameBuffer::Status::need_more) return handled;
    if (status != FrameBuffer::Status::frame) {
      if (error != nullptr) *error = "malformed frame from server";
      sock_.close();
      return -1;
    }
    handle_incoming(f);
    ++handled;
  }
}

bool Client::poll(int timeout_ms, std::string* error) {
  if (!sock_.valid()) {
    if (error != nullptr) *error = "connection lost";
    return false;
  }
  // Serve what's already buffered before touching the socket.
  const int buffered = drain_buffered_frames(error);
  if (buffered < 0) return false;
  if (buffered > 0) return true;
  std::uint8_t buf[65536];
  const long n = sock_.recv_some(buf, sizeof(buf), timeout_ms);
  if (n == -2) return true;  // quiet socket: a timeout is not an error here
  if (n <= 0) {
    if (error != nullptr) *error = "connection lost";
    sock_.close();
    return false;
  }
  in_.append(buf, static_cast<std::size_t>(n));
  return drain_buffered_frames(error) >= 0;
}

std::vector<ResultFrame> Client::take_ready_results() {
  std::vector<ResultFrame> drained;
  drained.reserve(results_.size());
  for (auto& [tag, result] : results_) drained.push_back(std::move(result));
  results_.clear();
  return drained;
}

void Client::forget(std::uint64_t tag) {
  pending_.erase(tag);
  results_.erase(tag);
  updates_.erase(tag);
  tune_results_.erase(tag);
  tune_failures_.erase(tag);
  tune_updates_.erase(tag);
}

}  // namespace qross::net
