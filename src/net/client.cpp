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
  append_frame(out_, type, payload);
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
    for (const auto& [tag, job] : pending_) {
      if (!send_submit(tag, job)) {
        resubmitted_all = false;
        break;
      }
    }
    if (resubmitted_all) {
      // Tune sessions too: the dead connection's hangup cancelled them
      // server-side, so the resubmit starts a REPLACEMENT session — the
      // warm probe cache makes its replayed prefix free, and the fresh
      // session streams trials from 0, so the stale progress is dropped.
      for (const auto& [tag, tune] : tune_pending_) {
        if (!send_submit_tune(tag, tune)) {
          resubmitted_all = false;
          break;
        }
        tune_updates_[tag].clear();
      }
    }
    if (resubmitted_all) {
      // Every pending tag is freshly in flight: a tag ALSO flagged for a
      // retryable-refusal resubmit must not be sent a second time — the
      // server would refuse the duplicate tag as a bad request and fail a
      // job that is actually running.
      retry_wanted_.clear();
      tune_retry_wanted_.clear();
      return true;
    }
  }
  if (error != nullptr && error->empty()) {
    *error = "reconnect attempts exhausted";
  }
  return false;
}

bool Client::send_submit(std::uint64_t tag, const RemoteJob& job) {
  SubmitJobFrame submit;
  submit.tag = tag;
  submit.solver = job.solver;
  submit.num_replicas = job.num_replicas;
  submit.num_sweeps = job.num_sweeps;
  submit.seed = job.seed;
  submit.priority = job.priority;
  submit.deadline_ms = job.deadline_ms;
  submit.bypass_cache = job.bypass_cache;
  submit.stream_status = job.stream_status;
  submit.model = job.model;
  submit.trace_id = job.trace_id;
  return send_frame(io::kRecordNetSubmitJob, encode_submit(submit));
}

bool Client::send_submit_tune(std::uint64_t tag, const RemoteTune& tune) {
  SubmitTuneFrame submit;
  submit.tag = tag;
  submit.solver = tune.solver;
  submit.strategy = tune.strategy;
  submit.pf_target = tune.pf_target;
  submit.trials = tune.trials;
  submit.a_min = tune.a_min;
  submit.a_max = tune.a_max;
  submit.seed = tune.seed;
  submit.instance = tune.instance;
  submit.trace_id = tune.trace_id;
  submit.instance_name = tune.instance_name;
  return send_frame(io::kRecordNetSubmitTune, encode_submit_tune(submit));
}

RemoteOutcome<std::uint64_t> Client::submit_job(const RemoteJob& job) {
  const std::uint64_t tag = next_tag_++;
  pending_[tag] = job;
  if (!send_submit(tag, job)) {
    // The reconnect path resubmits `tag` itself (it is already pending).
    std::string error;
    if (!reconnect_and_resubmit(&error)) {
      pending_.erase(tag);
      RemoteError remote;
      remote.kind = RemoteErrorKind::connection;
      remote.message = error;
      return remote;
    }
  }
  return tag;
}

RemoteOutcome<std::uint64_t> Client::submit_tune(const RemoteTune& tune) {
  const std::uint64_t tag = next_tag_++;
  tune_pending_[tag] = tune;
  if (!send_submit_tune(tag, tune)) {
    std::string error;
    if (!reconnect_and_resubmit(&error)) {
      tune_pending_.erase(tag);
      RemoteError remote;
      remote.kind = RemoteErrorKind::connection;
      remote.message = error;
      return remote;
    }
  }
  return tag;
}

void Client::handle_incoming(const Frame& f) {
  try {
    switch (f.type) {
      case io::kRecordNetResult: {
        auto result = decode_result(f.payload);
        const auto tag = result.tag;
        pending_.erase(tag);
        retry_wanted_.erase(tag);
        retry_attempts_.erase(tag);
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
        tune_pending_.erase(tag);
        tune_retry_wanted_.erase(tag);
        retry_attempts_.erase(tag);
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
        if (error.tag != 0 && pending_.contains(error.tag)) {
          if (is_retryable_error(error.code)) {
            // Transient server state (draining / full): keep the request
            // pending; wait_result() backs off and resubmits it.
            retry_wanted_.insert(error.tag);
          } else {
            // Permanent refusal.  Known edge: a reconnect's resubmits can
            // race the server noticing the dead predecessor connection
            // (whose hangup is what frees this client's inflight quota), so
            // a quota refusal here may be transient in that narrow window.
            // The taxonomy still wins — retrying quota errors in general
            // rewards exactly the flooding the quota exists to stop.
            // A permanent refusal (quota, bad request, unknown solver)
            // completes the request as failed, so wait_result() observes it
            // instead of timing out — and never resubmits it.
            ResultFrame result;
            result.tag = error.tag;
            result.status = service::JobStatus::failed;
            result.error = "server error " + std::to_string(error.code) +
                           ": " + error.message;
            pending_.erase(error.tag);
            retry_wanted_.erase(error.tag);
            retry_attempts_.erase(error.tag);
            results_.emplace(error.tag, std::move(result));
          }
        } else if (error.tag != 0 && tune_pending_.contains(error.tag)) {
          if (is_retryable_error(error.code)) {
            // Draining or at the session quota: tune_wait() backs off and
            // resubmits, exactly like a refused job.
            tune_retry_wanted_.insert(error.tag);
          } else {
            // Permanent refusal (no tuner loaded, unknown solver, bad
            // instance): surfaces as a typed error from tune_wait().
            RemoteError remote;
            remote.kind = RemoteErrorKind::refused;
            remote.code = error.code;
            remote.message = "server error " + std::to_string(error.code) +
                             ": " + error.message;
            tune_pending_.erase(error.tag);
            tune_retry_wanted_.erase(error.tag);
            retry_attempts_.erase(error.tag);
            tune_failures_.emplace(error.tag, std::move(remote));
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
  // Result-shaped stop types are scoped to one tag (the first payload field
  // of both Result and TuneResult); everything else stops on the type alone.
  const bool tag_scoped = stop_type == io::kRecordNetResult ||
                          stop_type == io::kRecordNetTuneResult;
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
      const bool is_stop =
          f.type == stop_type &&
          (!tag_scoped || (f.payload.size() >= 8 &&
                           io::ByteReader(f.payload).u64() == stop_tag));
      handle_incoming(f);
      if (is_stop) return true;
      // A request-killing Error frame also satisfies a Result wait, and so
      // does a retryable refusal (wait_result() owns the backoff + resubmit).
      if (stop_type == io::kRecordNetResult &&
          (results_.contains(stop_tag) || retry_wanted_.contains(stop_tag))) {
        return true;
      }
      if (stop_type == io::kRecordNetTuneResult &&
          (tune_results_.contains(stop_tag) ||
           tune_failures_.contains(stop_tag) ||
           tune_retry_wanted_.contains(stop_tag))) {
        return true;
      }
      if (f.type == io::kRecordNetError && !tag_scoped) {
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

RemoteOutcome<ResultFrame> Client::wait_result(std::uint64_t tag) {
  const auto finish_with = [&](RemoteErrorKind kind, std::string message) {
    pending_.erase(tag);
    retry_wanted_.erase(tag);
    retry_attempts_.erase(tag);
    RemoteError error;
    error.kind = kind;
    error.message = std::move(message);
    return error;
  };
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.request_timeout_ms);
  while (true) {
    const auto it = results_.find(tag);
    if (it != results_.end()) {
      ResultFrame result = std::move(it->second);
      results_.erase(it);
      retry_wanted_.erase(tag);
      retry_attempts_.erase(tag);
      return result;
    }
    if (!pending_.contains(tag)) {
      return finish_with(RemoteErrorKind::usage,
                         "unknown tag: never submitted or already waited");
    }
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) {
      return finish_with(RemoteErrorKind::timeout, "request timed out");
    }
    if (retry_wanted_.erase(tag) > 0) {
      // The server refused this tag with a RETRYABLE code (draining /
      // full): back off, then resubmit the identical job under its
      // original tag — idempotent server-side via cache/coalescing.
      const int attempt = ++retry_attempts_[tag];
      if (attempt > config_.reconnect_attempts) {
        retry_attempts_.erase(tag);
        return finish_with(
            RemoteErrorKind::refused,
            "server refused " + std::to_string(attempt - 1) +
                " resubmits (busy or draining); giving up");
      }
      const auto backoff =
          std::chrono::milliseconds(config_.reconnect_backoff_ms * attempt);
      if (backoff >= remaining) {
        // No budget left to wait out the refusal — and resubmitting now
        // would orphan a job on the server that nobody will collect.
        return finish_with(RemoteErrorKind::timeout, "request timed out");
      }
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      if (!send_submit(tag, pending_.at(tag))) {
        std::string reconnect_error;
        if (!reconnect_and_resubmit(&reconnect_error)) {
          return finish_with(RemoteErrorKind::connection,
                             "connection lost: " + reconnect_error);
        }
      }
      continue;
    }
    remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) {
      return finish_with(RemoteErrorKind::timeout, "request timed out");
    }
    std::string error;
    if (!pump(io::kRecordNetResult, tag,
              static_cast<int>(remaining.count()), &error)) {
      if (error == "request timed out") {
        return finish_with(RemoteErrorKind::timeout, error);
      }
      // Connection lost mid-wait: redial and resubmit the outstanding jobs,
      // then keep waiting out the remaining budget.
      if (!reconnect_and_resubmit(&error)) {
        return finish_with(RemoteErrorKind::connection,
                           "connection lost: " + error);
      }
    }
  }
}

RemoteOutcome<TuneResultFrame> Client::tune_wait(std::uint64_t tag) {
  const auto finish_with = [&](RemoteErrorKind kind, std::string message) {
    tune_pending_.erase(tag);
    tune_retry_wanted_.erase(tag);
    retry_attempts_.erase(tag);
    RemoteError error;
    error.kind = kind;
    error.message = std::move(message);
    return error;
  };
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.request_timeout_ms);
  while (true) {
    if (const auto it = tune_results_.find(tag); it != tune_results_.end()) {
      TuneResultFrame result = std::move(it->second);
      tune_results_.erase(it);
      retry_attempts_.erase(tag);
      return result;
    }
    if (const auto it = tune_failures_.find(tag); it != tune_failures_.end()) {
      RemoteError error = std::move(it->second);
      tune_failures_.erase(it);
      retry_attempts_.erase(tag);
      return error;
    }
    if (!tune_pending_.contains(tag)) {
      return finish_with(RemoteErrorKind::usage,
                         "unknown tag: never submitted or already waited");
    }
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) {
      return finish_with(RemoteErrorKind::timeout, "request timed out");
    }
    if (tune_retry_wanted_.erase(tag) > 0) {
      // Refused with a retryable code (draining / session quota): back off
      // and resubmit.  Nothing started server-side, so the resubmit opens
      // the SAME session the refusal denied, not a duplicate.
      const int attempt = ++retry_attempts_[tag];
      if (attempt > config_.reconnect_attempts) {
        retry_attempts_.erase(tag);
        return finish_with(
            RemoteErrorKind::refused,
            "server refused " + std::to_string(attempt - 1) +
                " resubmits (busy or draining); giving up");
      }
      const auto backoff =
          std::chrono::milliseconds(config_.reconnect_backoff_ms * attempt);
      if (backoff >= remaining) {
        return finish_with(RemoteErrorKind::timeout, "request timed out");
      }
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      if (!send_submit_tune(tag, tune_pending_.at(tag))) {
        std::string reconnect_error;
        if (!reconnect_and_resubmit(&reconnect_error)) {
          return finish_with(RemoteErrorKind::connection,
                             "connection lost: " + reconnect_error);
        }
      }
      continue;
    }
    remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (remaining.count() <= 0) {
      return finish_with(RemoteErrorKind::timeout, "request timed out");
    }
    std::string error;
    if (!pump(io::kRecordNetTuneResult, tag,
              static_cast<int>(remaining.count()), &error)) {
      if (error == "request timed out") {
        return finish_with(RemoteErrorKind::timeout, error);
      }
      if (!reconnect_and_resubmit(&error)) {
        return finish_with(RemoteErrorKind::connection,
                           "connection lost: " + error);
      }
    }
  }
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
  for (auto& [tag, result] : results_) {
    retry_wanted_.erase(tag);
    retry_attempts_.erase(tag);
    drained.push_back(std::move(result));
  }
  results_.clear();
  return drained;
}

void Client::forget(std::uint64_t tag) {
  pending_.erase(tag);
  results_.erase(tag);
  updates_.erase(tag);
  retry_wanted_.erase(tag);
  retry_attempts_.erase(tag);
}

}  // namespace qross::net
