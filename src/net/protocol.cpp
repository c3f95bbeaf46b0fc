#include "net/protocol.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "io/binary.hpp"

namespace qross::net {

namespace {

void put_string(io::ByteWriter& out, const std::string& text) {
  out.u32(static_cast<std::uint32_t>(text.size()));
  out.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string get_string(io::ByteReader& in) {
  const std::uint32_t size = in.u32();
  // Strings on the wire are names and error messages; anything huge is a
  // corrupt length that slipped past the checksum odds.
  if (size > (1u << 20)) {
    throw io::DecodeError("implausible string length: " +
                          std::to_string(size));
  }
  const auto bytes = in.raw(size);
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

service::JobStatus decode_status(std::uint32_t value) {
  switch (value) {
    case 0: return service::JobStatus::queued;
    case 1: return service::JobStatus::running;
    case 2: return service::JobStatus::done;
    case 3: return service::JobStatus::cancelled;
    case 4: return service::JobStatus::expired;
    case 5: return service::JobStatus::failed;
  }
  throw io::DecodeError("unknown job status on the wire: " +
                        std::to_string(value));
}

std::uint32_t encode_status(service::JobStatus status) {
  switch (status) {
    case service::JobStatus::queued: return 0;
    case service::JobStatus::running: return 1;
    case service::JobStatus::done: return 2;
    case service::JobStatus::cancelled: return 3;
    case service::JobStatus::expired: return 4;
    case service::JobStatus::failed: return 5;
  }
  return 5;
}

}  // namespace

std::vector<std::uint8_t> encode_hello(const HelloFrame& hello) {
  io::ByteWriter out;
  out.u32(hello.protocol_version);
  out.u32(0);  // flags, reserved
  put_string(out, hello.client_id);
  return out.take();
}

HelloFrame decode_hello(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  HelloFrame hello;
  hello.protocol_version = in.u32();
  in.u32();  // flags, reserved
  // client_id was appended within v1: a Hello from an older client simply
  // ends here, which means "no self-reported identity".
  if (in.remaining() > 0) hello.client_id = get_string(in);
  return hello;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckFrame& ack) {
  io::ByteWriter out;
  out.u32(ack.protocol_version);
  out.u32(ack.max_frame_bytes);
  return out.take();
}

HelloAckFrame decode_hello_ack(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  HelloAckFrame ack;
  ack.protocol_version = in.u32();
  ack.max_frame_bytes = in.u32();
  return ack;
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& error) {
  io::ByteWriter out;
  out.u64(error.tag);
  out.u32(error.code);
  out.u32(error.protocol_version);
  put_string(out, error.message);
  return out.take();
}

ErrorFrame decode_error(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  ErrorFrame error;
  error.tag = in.u64();
  error.code = in.u32();
  error.protocol_version = in.u32();
  error.message = get_string(in);
  return error;
}

std::vector<std::uint8_t> encode_submit(const SubmitJobFrame& submit) {
  io::ByteWriter out;
  out.u64(submit.tag);
  put_string(out, submit.solver);
  out.u32(submit.num_replicas);
  out.u32(submit.num_sweeps);
  out.u64(submit.seed);
  out.u32(static_cast<std::uint32_t>(submit.priority));
  out.u32(submit.deadline_ms);
  out.u8(submit.bypass_cache ? 1 : 0);
  out.u8(submit.stream_status ? 1 : 0);
  io::encode_model(out, submit.model);
  // Trace-id tail, appended within protocol v1 after the model: a pre-obs
  // decoder stops at the model, a pre-obs encoder leaves the id at 0.
  out.u64(submit.trace_id);
  return out.take();
}

SubmitJobFrame decode_submit(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  SubmitJobFrame submit;
  submit.tag = in.u64();
  submit.solver = get_string(in);
  submit.num_replicas = in.u32();
  submit.num_sweeps = in.u32();
  submit.seed = in.u64();
  submit.priority = static_cast<std::int32_t>(in.u32());
  submit.deadline_ms = in.u32();
  submit.bypass_cache = in.u8() != 0;
  submit.stream_status = in.u8() != 0;
  submit.model = io::decode_model(in);
  if (in.remaining() > 0) submit.trace_id = in.u64();
  return submit;
}

std::vector<std::uint8_t> encode_job_status(const JobStatusFrame& status) {
  io::ByteWriter out;
  out.u64(status.tag);
  out.u32(encode_status(status.status));
  return out.take();
}

JobStatusFrame decode_job_status(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  JobStatusFrame status;
  status.tag = in.u64();
  status.status = decode_status(in.u32());
  return status;
}

std::vector<std::uint8_t> encode_cancel(const CancelJobFrame& cancel) {
  io::ByteWriter out;
  out.u64(cancel.tag);
  return out.take();
}

CancelJobFrame decode_cancel(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  CancelJobFrame cancel;
  cancel.tag = in.u64();
  return cancel;
}

std::vector<std::uint8_t> encode_result(const ResultFrame& result) {
  io::ByteWriter out;
  out.u64(result.tag);
  out.u32(encode_status(result.status));
  out.u8(result.cache_hit ? 1 : 0);
  out.u8(result.coalesced ? 1 : 0);
  out.f64(result.wait_ms);
  out.f64(result.run_ms);
  put_string(out, result.error);
  out.u8(result.batch != nullptr ? 1 : 0);
  if (result.batch != nullptr) io::encode_batch(out, *result.batch);
  return out.take();
}

ResultFrame decode_result(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  ResultFrame result;
  result.tag = in.u64();
  result.status = decode_status(in.u32());
  result.cache_hit = in.u8() != 0;
  result.coalesced = in.u8() != 0;
  result.wait_ms = in.f64();
  result.run_ms = in.f64();
  result.error = get_string(in);
  if (in.u8() != 0) {
    result.batch =
        std::make_shared<const qubo::SolveBatch>(io::decode_batch(in));
  }
  return result;
}

std::vector<std::uint8_t> encode_metrics(const MetricsFrame& metrics) {
  io::ByteWriter out;
  const auto& s = metrics.service;
  out.u64(s.workers);
  out.u64(s.queue_depth);
  out.u64(s.running);
  out.u64(s.submitted);
  out.u64(s.completed);
  out.u64(s.cancelled);
  out.u64(s.expired);
  out.u64(s.failed);
  out.u64(s.coalesced);
  out.u64(s.solver_invocations);
  out.u64(s.cache_hits);
  out.u64(s.cache_misses);
  out.u64(s.cache_evictions);
  out.u64(s.cache_size);
  out.u64(s.cache_loaded);
  out.u64(s.cache_stored);
  out.u64(s.cache_load_skipped);
  out.f64(s.uptime_seconds);
  out.f64(s.jobs_per_second);
  out.f64(s.queue_wait.p50_ms);
  out.f64(s.queue_wait.p90_ms);
  out.f64(s.queue_wait.p99_ms);
  out.f64(s.run.p50_ms);
  out.f64(s.run.p90_ms);
  out.f64(s.run.p99_ms);
  out.u64(metrics.connections_accepted);
  out.u64(metrics.connections_active);
  out.u64(metrics.protocol_errors);
  out.u64(metrics.connection_submitted);
  out.u64(metrics.connection_results);
  out.u64(metrics.connection_cancelled);
  // Admission-control tail, appended within protocol v1 (strictly after
  // every pre-quota field so old decoders read an unchanged prefix).
  out.u64(metrics.connections_rejected_full);
  out.u64(s.admission_rejected);
  put_string(out, metrics.client_id);
  out.u32(static_cast<std::uint32_t>(metrics.clients.size()));
  for (const auto& c : metrics.clients) {
    put_string(out, c.client_id);
    out.f64(c.weight);
    out.u64(c.queued);
    out.u64(c.inflight);
    out.u64(c.submitted);
    out.u64(c.completed);
    out.u64(c.dispatched);
    out.u64(c.rejected_inflight);
    out.u64(c.rejected_queued);
  }
  // SIMD-dispatch tail, appended within protocol v1 after the per-client
  // rows: pre-SIMD decoders stop at the rows, pre-SIMD encoders make a
  // decoder default the kernel to "unknown".
  put_string(out, s.simd_kernel);
  // Sliding-window throughput tail (appended after the SIMD tail, same
  // append-only discipline): absent on older servers, defaulting to 0.
  out.f64(s.recent_jobs_per_second);
  return out.take();
}

MetricsFrame decode_metrics(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  MetricsFrame metrics;
  auto& s = metrics.service;
  s.workers = in.u64();
  s.queue_depth = in.u64();
  s.running = in.u64();
  s.submitted = in.u64();
  s.completed = in.u64();
  s.cancelled = in.u64();
  s.expired = in.u64();
  s.failed = in.u64();
  s.coalesced = in.u64();
  s.solver_invocations = in.u64();
  s.cache_hits = in.u64();
  s.cache_misses = in.u64();
  s.cache_evictions = in.u64();
  s.cache_size = in.u64();
  s.cache_loaded = in.u64();
  s.cache_stored = in.u64();
  s.cache_load_skipped = in.u64();
  s.uptime_seconds = in.f64();
  s.jobs_per_second = in.f64();
  s.queue_wait.p50_ms = in.f64();
  s.queue_wait.p90_ms = in.f64();
  s.queue_wait.p99_ms = in.f64();
  s.run.p50_ms = in.f64();
  s.run.p90_ms = in.f64();
  s.run.p99_ms = in.f64();
  metrics.connections_accepted = in.u64();
  metrics.connections_active = in.u64();
  metrics.protocol_errors = in.u64();
  metrics.connection_submitted = in.u64();
  metrics.connection_results = in.u64();
  metrics.connection_cancelled = in.u64();
  // A pre-admission-control server's payload ends here; the tail defaults
  // to "no quota activity" and an unknown dispatch kernel.
  if (in.remaining() == 0) {
    s.simd_kernel = "unknown";
    return metrics;
  }
  metrics.connections_rejected_full = in.u64();
  s.admission_rejected = in.u64();
  metrics.client_id = get_string(in);
  const std::uint32_t client_rows = in.u32();
  // A row is at least 68 bytes (empty-id string + f64 + 7×u64): a count the
  // remaining payload cannot possibly hold is a corrupt/hostile length, and
  // must throw BEFORE reserve() turns it into a large allocation.
  constexpr std::size_t kMinRowBytes = 68;
  if (client_rows > in.remaining() / kMinRowBytes) {
    throw io::DecodeError("implausible per-client row count: " +
                          std::to_string(client_rows));
  }
  metrics.clients.reserve(client_rows);
  for (std::uint32_t k = 0; k < client_rows; ++k) {
    service::ClientSchedulerMetrics c;
    c.client_id = get_string(in);
    c.weight = in.f64();
    c.queued = in.u64();
    c.inflight = in.u64();
    c.submitted = in.u64();
    c.completed = in.u64();
    c.dispatched = in.u64();
    c.rejected_inflight = in.u64();
    c.rejected_queued = in.u64();
    metrics.clients.push_back(std::move(c));
  }
  // A pre-SIMD server's payload ends after the rows; "unknown" marks a
  // daemon that predates kernel dispatch reporting.
  if (in.remaining() == 0) {
    s.simd_kernel = "unknown";
    return metrics;
  }
  s.simd_kernel = get_string(in);
  // Pre-obs servers end here; 0 = "no recent-rate data".
  if (in.remaining() > 0) s.recent_jobs_per_second = in.f64();
  return metrics;
}

qubo::QuboModel pack_tsp_instance(const tsp::TspInstance& instance) {
  const std::size_t n = instance.num_cities();
  qubo::QuboModel model(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      model.add_term(i, j, instance.distance(i, j));
    }
  }
  return model;
}

tsp::TspInstance unpack_tsp_instance(const qubo::QuboModel& model,
                                     std::string name) {
  const std::size_t n = model.num_vars();
  std::vector<double> distances(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = model.coefficient(i, j);
      distances[i * n + j] = d;
      distances[j * n + i] = d;
    }
  }
  return {std::move(name), n, std::move(distances)};
}

std::vector<std::uint8_t> encode_submit_tune(const SubmitTuneFrame& submit) {
  io::ByteWriter out;
  out.u64(submit.tag);
  put_string(out, submit.solver);
  out.u8(submit.strategy);
  out.f64(submit.pf_target);
  out.u32(submit.trials);
  out.f64(submit.a_min);
  out.f64(submit.a_max);
  out.u64(submit.seed);
  io::encode_model(out, submit.instance);
  // Appended within protocol v1 after the instance payload: a first-cut
  // decoder stops at the instance, a first-cut encoder leaves the tail out.
  out.u64(submit.trace_id);
  put_string(out, submit.instance_name);
  return out.take();
}

SubmitTuneFrame decode_submit_tune(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  SubmitTuneFrame submit;
  submit.tag = in.u64();
  submit.solver = get_string(in);
  submit.strategy = in.u8();
  submit.pf_target = in.f64();
  submit.trials = in.u32();
  submit.a_min = in.f64();
  submit.a_max = in.f64();
  submit.seed = in.u64();
  submit.instance = io::decode_model(in);
  if (in.remaining() > 0) submit.trace_id = in.u64();
  if (in.remaining() > 0) submit.instance_name = get_string(in);
  return submit;
}

std::vector<std::uint8_t> encode_tune_status(const TuneStatusFrame& status) {
  io::ByteWriter out;
  out.u64(status.tag);
  out.u32(status.trial);
  out.u32(status.total);
  out.f64(status.relaxation_parameter);
  out.f64(status.pf);
  out.f64(status.best_length);
  // Batch-summary tail, appended within protocol v1.
  out.f64(status.energy_avg);
  out.f64(status.energy_std);
  out.u8(status.feasible ? 1 : 0);
  return out.take();
}

TuneStatusFrame decode_tune_status(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  TuneStatusFrame status;
  status.tag = in.u64();
  status.trial = in.u32();
  status.total = in.u32();
  status.relaxation_parameter = in.f64();
  status.pf = in.f64();
  status.best_length = in.f64();
  if (in.remaining() > 0) status.energy_avg = in.f64();
  if (in.remaining() > 0) status.energy_std = in.f64();
  if (in.remaining() > 0) {
    status.feasible = in.u8() != 0;
  } else {
    // Pre-tail frames still carry feasibility implicitly: a finite best
    // length means some trial decoded a valid tour.
    status.feasible = std::isfinite(status.best_length);
  }
  return status;
}

std::vector<std::uint8_t> encode_cancel_tune(const CancelTuneFrame& cancel) {
  io::ByteWriter out;
  out.u64(cancel.tag);
  return out.take();
}

CancelTuneFrame decode_cancel_tune(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  CancelTuneFrame cancel;
  cancel.tag = in.u64();
  return cancel;
}

std::vector<std::uint8_t> encode_tune_result(const TuneResultFrame& result) {
  io::ByteWriter out;
  out.u64(result.tag);
  out.u8(result.status);
  put_string(out, result.error);
  out.f64(result.best_length);
  out.f64(result.best_parameter);
  out.u32(static_cast<std::uint32_t>(result.best_tour.size()));
  for (const std::uint32_t city : result.best_tour) out.u32(city);
  out.u32(static_cast<std::uint32_t>(result.trials.size()));
  for (const auto& trial : result.trials) {
    out.f64(trial.relaxation_parameter);
    out.f64(trial.pf);
    out.f64(trial.best_length_so_far);
  }
  // Appended within protocol v1; decoders default them when absent.
  out.u64(result.solver_invocations);
  out.f64(result.wall_ms);
  return out.take();
}

TuneResultFrame decode_tune_result(std::span<const std::uint8_t> payload) {
  io::ByteReader in(payload);
  TuneResultFrame result;
  result.tag = in.u64();
  result.status = in.u8();
  result.error = get_string(in);
  result.best_length = in.f64();
  result.best_parameter = in.f64();
  const std::uint32_t tour_size = in.u32();
  if (tour_size > in.remaining() / sizeof(std::uint32_t)) {
    throw io::DecodeError("implausible tour length: " +
                          std::to_string(tour_size));
  }
  result.best_tour.reserve(tour_size);
  for (std::uint32_t k = 0; k < tour_size; ++k) {
    result.best_tour.push_back(in.u32());
  }
  const std::uint32_t trial_rows = in.u32();
  constexpr std::size_t kTrialBytes = 3 * sizeof(double);
  if (trial_rows > in.remaining() / kTrialBytes) {
    throw io::DecodeError("implausible trial count: " +
                          std::to_string(trial_rows));
  }
  result.trials.reserve(trial_rows);
  for (std::uint32_t k = 0; k < trial_rows; ++k) {
    TuneResultFrame::Trial trial;
    trial.relaxation_parameter = in.f64();
    trial.pf = in.f64();
    trial.best_length_so_far = in.f64();
    result.trials.push_back(trial);
  }
  if (in.remaining() > 0) result.solver_invocations = in.u64();
  if (in.remaining() > 0) result.wall_ms = in.f64();
  return result;
}

std::vector<std::uint8_t> encode_text(const std::string& text) {
  // The raw bytes ARE the payload — no length prefix, so the 1 MiB
  // per-string decode cap does not apply (see protocol.hpp).
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

std::string decode_text(std::span<const std::uint8_t> payload) {
  return std::string(payload.begin(), payload.end());
}

std::vector<std::uint8_t> frame(std::uint32_t type,
                                std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  append_frame(out, type, payload);
  return out;
}

void append_frame(std::vector<std::uint8_t>& out, std::uint32_t type,
                  std::span<const std::uint8_t> payload) {
  io::ByteWriter writer(std::move(out));
  io::write_record(writer, type, payload);
  out = writer.take();
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameBuffer::Status FrameBuffer::next(Frame* out) {
  if (broken_) return Status::bad_frame;
  // Compact once the consumed prefix dominates; keeps the amortised cost of
  // many small frames linear without a deque.
  if (consumed_ > 0 &&
      (consumed_ >= buffer_.size() || consumed_ > (1u << 16))) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const std::size_t available = buffer_.size() - consumed_;
  constexpr std::size_t kHeader = 16;  // u32 size | u32 type | u64 checksum
  if (available < kHeader) return Status::need_more;
  io::ByteReader reader(
      std::span<const std::uint8_t>(buffer_.data() + consumed_, available));
  const std::uint32_t size = reader.u32();
  const std::uint32_t type = reader.u32();
  const std::uint64_t expected = reader.u64();
  if (size > max_frame_bytes_) {
    broken_ = true;
    return Status::oversized;
  }
  if (available < kHeader + size) return Status::need_more;
  const auto payload = reader.raw(size);
  if (io::checksum64(payload) != expected) {
    broken_ = true;
    return Status::bad_frame;
  }
  out->type = type;
  out->payload.assign(payload.begin(), payload.end());
  consumed_ += kHeader + size;
  return Status::frame;
}

}  // namespace qross::net
