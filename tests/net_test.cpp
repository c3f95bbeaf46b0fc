// Tests for the src/net/ network front end: endpoint parsing, the payload
// codecs and incremental frame splitter, the Server reactor above a real
// SolveService (submit/cancel/deadline/disconnect semantics over TCP and
// Unix-domain sockets), the blocking Client with reconnect, and the
// protocol-robustness contract — truncated frames, flipped checksum bytes,
// future protocol versions, and oversized frames all answered with a clean
// Error frame (the socket counterpart of io_test's corruption suite) — and
// the transport contract: golden frame bytes, TCP_NODELAY on every TCP
// stream, and results delivered intact to a reader that falls behind.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "counting_solver.hpp"
#include "golden_fixtures.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "problems/mvc/mvc.hpp"
#include "service/solve_service.hpp"
#include "solvers/digital_annealer.hpp"

namespace qross::net {
namespace {

using namespace std::chrono_literals;

qubo::QuboModel test_model(std::uint64_t seed = 7, std::size_t n = 32) {
  return mvc::generate_random_mvc(n, 0.12, seed).to_qubo(2.0);
}

bool eventually(const std::function<bool()>& condition,
                std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

// --- endpoints --------------------------------------------------------------

TEST(EndpointTest, ParsesTcpUnixAndShorthand) {
  const auto unix_ep = Endpoint::parse("unix:/tmp/q.sock");
  ASSERT_TRUE(unix_ep.has_value());
  EXPECT_EQ(unix_ep->kind, Endpoint::Kind::unix_domain);
  EXPECT_EQ(unix_ep->path, "/tmp/q.sock");
  EXPECT_EQ(unix_ep->to_string(), "unix:/tmp/q.sock");

  const auto tcp = Endpoint::parse("tcp:127.0.0.1:7777");
  ASSERT_TRUE(tcp.has_value());
  EXPECT_EQ(tcp->kind, Endpoint::Kind::tcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7777);

  const auto shorthand = Endpoint::parse("localhost:0");
  ASSERT_TRUE(shorthand.has_value());
  EXPECT_EQ(shorthand->kind, Endpoint::Kind::tcp);
  EXPECT_EQ(shorthand->port, 0);

  EXPECT_FALSE(Endpoint::parse("").has_value());
  EXPECT_FALSE(Endpoint::parse("unix:").has_value());
  EXPECT_FALSE(Endpoint::parse("no-port").has_value());
  EXPECT_FALSE(Endpoint::parse("host:99999").has_value());
  EXPECT_FALSE(Endpoint::parse("host:notaport").has_value());
}

// --- codecs -----------------------------------------------------------------

TEST(NetProtocolTest, ModelCodecRoundTripsCanonically) {
  const auto model = test_model(3, 24);
  io::ByteWriter out;
  io::encode_model(out, model);
  const auto bytes = out.take();
  io::ByteReader in(bytes);
  const auto decoded = io::decode_model(in);
  ASSERT_EQ(decoded.num_vars(), model.num_vars());
  EXPECT_EQ(decoded.offset(), model.offset());
  for (std::size_t i = 0; i < model.num_vars(); ++i) {
    for (std::size_t j = i; j < model.num_vars(); ++j) {
      EXPECT_EQ(decoded.coefficient(i, j), model.coefficient(i, j));
    }
  }
  // Canonical: re-encoding the decoded model is byte-identical.
  io::ByteWriter again;
  io::encode_model(again, decoded);
  EXPECT_EQ(again.bytes().size(), bytes.size());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), again.bytes().begin()));
}

TEST(NetProtocolTest, ModelDecoderRejectsCorruptInput) {
  // nnz count beyond the n(n+1)/2 structural maximum: allocation bomb guard.
  {
    io::ByteWriter out;
    out.u32(4);       // num_vars
    out.f64(0.0);     // offset
    out.u32(1000);    // nnz — impossible for n=4
    io::ByteReader in(out.bytes());
    EXPECT_THROW(io::decode_model(in), io::DecodeError);
  }
  // Lower-triangular / out-of-range term index.
  {
    io::ByteWriter out;
    out.u32(4);
    out.f64(0.0);
    out.u32(1);
    out.u32(3);
    out.u32(1);  // j < i: not canonical upper-triangular
    out.f64(1.0);
    io::ByteReader in(out.bytes());
    EXPECT_THROW(io::decode_model(in), io::DecodeError);
  }
  // Truncated mid-triple.
  {
    io::ByteWriter out;
    out.u32(4);
    out.f64(0.0);
    out.u32(2);
    out.u32(0);
    out.u32(1);
    out.f64(1.0);  // second triple missing entirely
    io::ByteReader in(out.bytes());
    EXPECT_THROW(io::decode_model(in), io::DecodeError);
  }
}

TEST(NetProtocolTest, SubmitFrameRoundTrips) {
  SubmitJobFrame submit;
  submit.tag = 42;
  submit.solver = "tabu";
  submit.num_replicas = 9;
  submit.num_sweeps = 77;
  submit.seed = 0xDEADBEEF;
  submit.priority = -3;
  submit.deadline_ms = 1500;
  submit.bypass_cache = true;
  submit.stream_status = true;
  submit.model = test_model(5, 16);
  submit.trace_id = 0xFACE;
  const auto decoded = decode_submit(encode_submit(submit));
  EXPECT_EQ(decoded.tag, 42u);
  EXPECT_EQ(decoded.solver, "tabu");
  EXPECT_EQ(decoded.num_replicas, 9u);
  EXPECT_EQ(decoded.num_sweeps, 77u);
  EXPECT_EQ(decoded.seed, 0xDEADBEEFu);
  EXPECT_EQ(decoded.priority, -3);
  EXPECT_EQ(decoded.deadline_ms, 1500u);
  EXPECT_TRUE(decoded.bypass_cache);
  EXPECT_TRUE(decoded.stream_status);
  EXPECT_EQ(decoded.model.num_vars(), submit.model.num_vars());
  EXPECT_EQ(decoded.trace_id, 0xFACEu);

  // The trace id was appended within v1: a pre-obs client's SubmitJob ends
  // at the model, and the decoder must default the id to 0, not throw.
  auto legacy_bytes = encode_submit(submit);
  legacy_bytes.resize(legacy_bytes.size() - 8);
  const auto legacy = decode_submit(legacy_bytes);
  EXPECT_EQ(legacy.trace_id, 0u);
  EXPECT_EQ(legacy.model.num_vars(), submit.model.num_vars());
}

TEST(NetProtocolTest, ResultFrameRoundTripsWithAndWithoutBatch) {
  ResultFrame result;
  result.tag = 9;
  result.status = service::JobStatus::expired;
  result.coalesced = true;
  result.wait_ms = 1.5;
  result.run_ms = 2.5;
  result.error = "late";
  auto decoded = decode_result(encode_result(result));
  EXPECT_EQ(decoded.tag, 9u);
  EXPECT_EQ(decoded.status, service::JobStatus::expired);
  EXPECT_TRUE(decoded.coalesced);
  EXPECT_EQ(decoded.error, "late");
  EXPECT_EQ(decoded.batch, nullptr);

  qubo::SolveBatch batch;
  batch.results.push_back({{1, 0, 1, 1}, -3.25});
  result.batch = std::make_shared<const qubo::SolveBatch>(batch);
  decoded = decode_result(encode_result(result));
  ASSERT_NE(decoded.batch, nullptr);
  ASSERT_EQ(decoded.batch->size(), 1u);
  EXPECT_EQ(decoded.batch->results[0].assignment, (qubo::Bits{1, 0, 1, 1}));
  EXPECT_EQ(decoded.batch->results[0].qubo_energy, -3.25);
}

TEST(NetProtocolTest, HelloRoundTripsClientIdAndToleratesLegacyPayload) {
  HelloFrame hello;
  hello.client_id = "tenant-a";
  auto decoded = decode_hello(encode_hello(hello));
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_EQ(decoded.client_id, "tenant-a");

  // A pre-admission-control Hello (version + flags only) still decodes:
  // fields are append-only within a protocol version.
  io::ByteWriter legacy;
  legacy.u32(kProtocolVersion);
  legacy.u32(0);
  decoded = decode_hello(legacy.bytes());
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_TRUE(decoded.client_id.empty());
}

TEST(NetProtocolTest, MetricsFrameRoundTripsAdmissionTailAndToleratesLegacy) {
  MetricsFrame metrics;
  metrics.service.admission_rejected = 7;
  metrics.service.simd_kernel = "avx2";
  metrics.service.recent_jobs_per_second = 4.25;
  metrics.connections_rejected_full = 3;
  metrics.client_id = "me";
  service::ClientSchedulerMetrics row;
  row.client_id = "greedy";
  row.weight = 2.5;
  row.queued = 4;
  row.inflight = 6;
  row.submitted = 100;
  row.completed = 90;
  row.dispatched = 42;
  row.rejected_inflight = 8;
  row.rejected_queued = 9;
  metrics.clients.push_back(row);

  const auto decoded = decode_metrics(encode_metrics(metrics));
  EXPECT_EQ(decoded.service.admission_rejected, 7u);
  EXPECT_EQ(decoded.service.simd_kernel, "avx2");
  EXPECT_EQ(decoded.service.recent_jobs_per_second, 4.25);
  EXPECT_EQ(decoded.connections_rejected_full, 3u);
  EXPECT_EQ(decoded.client_id, "me");
  ASSERT_EQ(decoded.clients.size(), 1u);
  EXPECT_EQ(decoded.clients[0].client_id, "greedy");
  EXPECT_EQ(decoded.clients[0].weight, 2.5);
  EXPECT_EQ(decoded.clients[0].queued, 4u);
  EXPECT_EQ(decoded.clients[0].inflight, 6u);
  EXPECT_EQ(decoded.clients[0].submitted, 100u);
  EXPECT_EQ(decoded.clients[0].completed, 90u);
  EXPECT_EQ(decoded.clients[0].dispatched, 42u);
  EXPECT_EQ(decoded.clients[0].rejected_inflight, 8u);
  EXPECT_EQ(decoded.clients[0].rejected_queued, 9u);

  // A pre-SIMD-dispatch payload ends after the per-client rows: strip the
  // recent-rate f64 (8 bytes) and the kernel string (empty string = 4
  // length bytes) and the decoder must report an unknown kernel.
  auto pre_simd_bytes = encode_metrics(MetricsFrame{});
  pre_simd_bytes.resize(pre_simd_bytes.size() - 12);
  const auto pre_simd = decode_metrics(pre_simd_bytes);
  EXPECT_EQ(pre_simd.service.simd_kernel, "unknown");
  EXPECT_EQ(pre_simd.service.recent_jobs_per_second, 0.0);

  // A pre-obs payload ends after the kernel string: strip just the
  // recent-rate f64 and the rate defaults to 0 while the kernel survives.
  auto pre_obs_bytes = encode_metrics(MetricsFrame{});
  pre_obs_bytes.resize(pre_obs_bytes.size() - 8);
  const auto pre_obs = decode_metrics(pre_obs_bytes);
  EXPECT_EQ(pre_obs.service.recent_jobs_per_second, 0.0);

  // A pre-admission-control payload is a strict prefix of that: strip the
  // quota tail too (u64 + u64 + empty string + u32 count = 24 bytes) and
  // the decoder must fall back to "no quota activity".
  auto legacy_bytes = pre_simd_bytes;
  legacy_bytes.resize(legacy_bytes.size() - 24);
  const auto legacy = decode_metrics(legacy_bytes);
  EXPECT_EQ(legacy.connections_rejected_full, 0u);
  EXPECT_EQ(legacy.service.admission_rejected, 0u);
  EXPECT_TRUE(legacy.client_id.empty());
  EXPECT_TRUE(legacy.clients.empty());
  EXPECT_EQ(legacy.service.simd_kernel, "unknown");
}

TEST(NetProtocolTest, FrameBufferReassemblesByteByByte) {
  const auto payload = encode_cancel({.tag = 77});
  const auto bytes = frame(io::kRecordNetCancelJob, payload);
  FrameBuffer buffer;
  Frame out;
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::need_more);
    buffer.append(&bytes[k], 1);
  }
  ASSERT_EQ(buffer.next(&out), FrameBuffer::Status::frame);
  EXPECT_EQ(out.type, io::kRecordNetCancelJob);
  EXPECT_EQ(decode_cancel(out.payload).tag, 77u);
  EXPECT_FALSE(buffer.mid_frame());
  EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::need_more);
}

TEST(NetProtocolTest, FrameBufferLatchesOnCorruption) {
  auto bytes = frame(io::kRecordNetCancelJob, encode_cancel({.tag = 1}));
  bytes[8] ^= 0x40;  // flip one checksum byte
  FrameBuffer buffer;
  buffer.append(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::bad_frame);
  // Latched: once framing trust is gone there is no resynchronising.
  EXPECT_EQ(buffer.next(&out), FrameBuffer::Status::bad_frame);

  FrameBuffer small(64);
  const auto big = frame(io::kRecordNetError,
                         encode_error({.message = std::string(100, 'x')}));
  small.append(big.data(), big.size());
  EXPECT_EQ(small.next(&out), FrameBuffer::Status::oversized);
}

// --- golden bytes -----------------------------------------------------------
//
// tests/data/golden_bytes.txt holds frames written by the byte-at-a-time
// codecs from the fixtures in golden_fixtures.hpp.  The wire format is a
// contract with every deployed peer (PROTOCOL.md): any codec change must
// reproduce these bytes exactly.

TEST(NetProtocolTest, SubmitAndResultFramesMatchTheGoldenBytes) {
  const auto golden = testing::golden::read_hex_table(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_bytes.txt");
  ASSERT_TRUE(golden.contains("submit_job"));
  ASSERT_TRUE(golden.contains("result_batch"));
  const auto submit = frame(io::kRecordNetSubmitJob,
                            encode_submit(testing::golden::submit()));
  EXPECT_EQ(testing::golden::to_hex(submit), golden.at("submit_job"));
  const auto result = frame(io::kRecordNetResult,
                            encode_result(testing::golden::result()));
  EXPECT_EQ(testing::golden::to_hex(result), golden.at("result_batch"));
}

TEST(NetProtocolTest, AppendFrameEqualsFrameByteForByte) {
  const auto submit = encode_submit(testing::golden::submit());
  const auto result = encode_result(testing::golden::result());
  std::vector<std::uint8_t> expected;
  std::vector<std::uint8_t> out;
  for (const auto& [type, payload] :
       {std::pair{std::uint32_t{io::kRecordNetSubmitJob}, submit},
        std::pair{std::uint32_t{io::kRecordNetResult}, result},
        std::pair{std::uint32_t{io::kRecordNetGetMetrics},
                  std::vector<std::uint8_t>{}}}) {
    const auto framed = frame(type, payload);
    std::vector<std::uint8_t> alone;
    append_frame(alone, type, payload);
    EXPECT_EQ(alone, framed);
    // Appending to a buffer that already holds frames is concatenation.
    append_frame(out, type, payload);
    expected.insert(expected.end(), framed.begin(), framed.end());
    EXPECT_EQ(out, expected);
  }
  // Several frames in one read reassemble by length, in order.
  FrameBuffer buffer;
  buffer.append(out.data(), out.size());
  Frame f;
  ASSERT_EQ(buffer.next(&f), FrameBuffer::Status::frame);
  EXPECT_EQ(f.type, io::kRecordNetSubmitJob);
  ASSERT_EQ(buffer.next(&f), FrameBuffer::Status::frame);
  EXPECT_EQ(f.type, io::kRecordNetResult);
  EXPECT_EQ(f.payload, result);
  ASSERT_EQ(buffer.next(&f), FrameBuffer::Status::frame);
  EXPECT_EQ(f.type, io::kRecordNetGetMetrics);
  EXPECT_EQ(buffer.next(&f), FrameBuffer::Status::need_more);
}

// --- server + client --------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("qross_net_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    server_.reset();
    service_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Builds service + server; the registry resolves "count" to a
  /// CountingSolver around the digital annealer so tests can prove which
  /// submissions actually ran a kernel.
  Endpoint start(const std::string& listen_spec,
                 service::ServiceConfig service_config = {},
                 std::uint32_t max_frame_bytes = kMaxFrameBytes,
                 std::size_t max_connections = 256) {
    service_ = std::make_unique<service::SolveService>(service_config);
    ServerConfig config;
    config.listen.push_back(*Endpoint::parse(listen_spec));
    config.max_frame_bytes = max_frame_bytes;
    config.max_connections = max_connections;
    config.registry = [this](const std::string& name) -> solvers::SolverPtr {
      if (name == "count") {
        return std::make_shared<testing::CountingSolver>(
            std::make_shared<solvers::DigitalAnnealer>(), invocations_);
      }
      return default_solver_registry(name);
    };
    server_ = std::make_unique<Server>(*service_, config);
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return {};
    }
    return server_->endpoints().front();
  }

  Endpoint start_tcp() { return start("tcp:127.0.0.1:0"); }
  Endpoint start_unix() {
    return start("unix:" + (dir_ / "qross.sock").string());
  }

  Client make_client(const Endpoint& endpoint,
                     int request_timeout_ms = 30000,
                     const std::string& client_id = {}) {
    ClientConfig config;
    config.server = endpoint;
    config.client_id = client_id;
    config.request_timeout_ms = request_timeout_ms;
    config.reconnect_backoff_ms = 10;
    return Client(config);
  }

  static RemoteJob quick_job(std::uint64_t seed = 7) {
    RemoteJob job;
    job.solver = "count";
    job.model = test_model(seed);
    job.num_replicas = 4;
    job.num_sweeps = 20;
    return job;
  }

  /// A job long enough (minutes) that only cancel/deadline/disconnect can
  /// end it within the test — kernels poll their stop token every sweep.
  static RemoteJob slow_job(std::uint64_t seed = 11) {
    RemoteJob job;
    job.solver = "count";
    job.model = test_model(seed, 64);
    job.num_replicas = 1;
    job.num_sweeps = 50'000'000;
    return job;
  }

  std::filesystem::path dir_;
  std::atomic<int> invocations_{0};
  std::unique_ptr<service::SolveService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, SubmitOverTcpMatchesLocalSolveBitIdentically) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  EXPECT_EQ(client.negotiated_version(), kProtocolVersion);

  const auto job = quick_job();
  const auto tag = client.submit(job, &error);
  ASSERT_TRUE(tag.has_value()) << error;
  const auto result = client.wait(*tag);
  ASSERT_EQ(result.status, service::JobStatus::done) << result.error;
  ASSERT_NE(result.batch, nullptr);

  // The wire round trip must not perturb the result: a local solve with
  // the same inputs is bit-identical.
  solvers::SolveOptions options;
  options.num_replicas = job.num_replicas;
  options.num_sweeps = job.num_sweeps;
  options.seed = job.seed;
  const auto local =
      solvers::DigitalAnnealer().solve(job.model, options);
  ASSERT_EQ(result.batch->size(), local.size());
  for (std::size_t k = 0; k < local.size(); ++k) {
    EXPECT_EQ(result.batch->results[k].assignment,
              local.results[k].assignment);
    EXPECT_EQ(result.batch->results[k].qubo_energy,
              local.results[k].qubo_energy);
  }
}

TEST_F(NetServerTest, UnixDomainSocketServesJobs) {
  const auto endpoint = start_unix();
  ASSERT_EQ(endpoint.kind, Endpoint::Kind::unix_domain);
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto results = client.run({quick_job(1), quick_job(2)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, service::JobStatus::done);
  EXPECT_EQ(results[1].status, service::JobStatus::done);
  EXPECT_EQ(invocations_.load(), 2);
}

TEST_F(NetServerTest, RepeatAndCrossClientSubmissionsHitTheServerCache) {
  const auto endpoint = start_tcp();
  auto first = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(first.connect(&error)) << error;
  const auto job = quick_job(21);
  auto result = first.wait(*first.submit(job));
  ASSERT_EQ(result.status, service::JobStatus::done);
  EXPECT_FALSE(result.cache_hit);
  const auto baseline = result.batch;

  // Same connection, same job: served from the service cache.
  result = first.wait(*first.submit(job));
  ASSERT_EQ(result.status, service::JobStatus::done);
  EXPECT_TRUE(result.cache_hit);

  // A DIFFERENT connection (a fresh short-lived client, as in the warm
  // daemon workflow): still a cache hit, still bit-identical.
  auto second = make_client(endpoint);
  ASSERT_TRUE(second.connect(&error)) << error;
  result = second.wait(*second.submit(job));
  ASSERT_EQ(result.status, service::JobStatus::done);
  EXPECT_TRUE(result.cache_hit);
  ASSERT_NE(result.batch, nullptr);
  ASSERT_EQ(result.batch->size(), baseline->size());
  for (std::size_t k = 0; k < baseline->size(); ++k) {
    EXPECT_EQ(result.batch->results[k].assignment,
              baseline->results[k].assignment);
  }
  EXPECT_EQ(invocations_.load(), 1);
}

TEST_F(NetServerTest, CancelEndToEndStopsARunningJob) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto tag = client.submit(slow_job());
  ASSERT_TRUE(tag.has_value());
  ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  ASSERT_TRUE(client.cancel(*tag));
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::cancelled);
}

TEST_F(NetServerTest, DeadlineTravelsAndExpiresMidRun) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  auto job = slow_job(31);
  job.deadline_ms = 60;
  const auto result = client.wait(*client.submit(job));
  EXPECT_EQ(result.status, service::JobStatus::expired);
}

TEST_F(NetServerTest, ClientDisconnectCancelsItsInFlightJobs) {
  const auto endpoint = start_tcp();
  {
    auto client = make_client(endpoint);
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.submit(slow_job(33)).has_value());
    ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  }  // client destroyed: socket closes with the job still running
  ASSERT_TRUE(eventually([&] { return service_->metrics().cancelled >= 1; }));
  ASSERT_TRUE(eventually(
      [&] { return server_->stats().disconnect_cancelled_jobs >= 1; }));
  EXPECT_EQ(service_->metrics().running, 0u);
}

TEST_F(NetServerTest, StreamedStatusUpdatesArriveInOrder) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  auto job = slow_job(35);
  job.stream_status = true;
  const auto tag = client.submit(job);
  ASSERT_TRUE(tag.has_value());
  ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  // Give the reactor's status tick a chance to observe `running`, then end
  // the job; the updates ride the same stream the Result arrives on.
  std::this_thread::sleep_for(80ms);
  client.cancel(*tag);
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::cancelled);
  // The first update is `queued` unless a worker grabbed the job before
  // the submit reply was even written; `running` must always have been
  // streamed by the time the cancel landed.
  const auto updates = client.status_updates(*tag);
  ASSERT_GE(updates.size(), 1u);
  EXPECT_EQ(updates.back(), service::JobStatus::running);
  if (updates.size() >= 2) {
    EXPECT_EQ(updates[0], service::JobStatus::queued);
  }
}

TEST_F(NetServerTest, UnknownSolverNameIsRejectedPerRequest) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  RemoteJob job = quick_job();
  job.solver = "warp-drive";
  const auto result = client.wait(*client.submit(job));
  EXPECT_EQ(result.status, service::JobStatus::failed);
  EXPECT_NE(result.error.find("unknown solver"), std::string::npos);
  // The connection survives a per-request error.
  const auto ok = client.wait(*client.submit(quick_job()));
  EXPECT_EQ(ok.status, service::JobStatus::done);
}

TEST_F(NetServerTest, MetricsRoundTripReportsConnectionLedger) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_EQ(client.wait(*client.submit(quick_job())).status,
            service::JobStatus::done);
  const auto metrics = client.metrics(&error);
  ASSERT_TRUE(metrics.has_value()) << error;
  EXPECT_EQ(metrics->service.workers, service_->num_workers());
  EXPECT_EQ(metrics->service.submitted, 1u);
  EXPECT_EQ(metrics->connection_submitted, 1u);
  EXPECT_EQ(metrics->connection_results, 1u);
  EXPECT_EQ(metrics->connections_accepted, 1u);
  EXPECT_EQ(metrics->connections_active, 1u);
}

TEST_F(NetServerTest, DrainCompletesInFlightAndRejectsNewSubmissions) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto tag = client.submit(quick_job(41));
  ASSERT_TRUE(tag.has_value());
  // Only start draining once the server has accepted the submission —
  // draining earlier would (correctly) refuse it, which is the other
  // assertion below.
  ASSERT_TRUE(eventually([&] { return service_->metrics().submitted >= 1; }));
  // Drain from another thread while the result may still be outstanding;
  // it must wait for the Result frame to flush, not cut the connection.
  std::thread drainer([&] {
    EXPECT_TRUE(server_->drain(std::chrono::milliseconds(10000)));
  });
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::done);
  drainer.join();
  const auto refused = client.wait(*client.submit(quick_job(42)));
  EXPECT_EQ(refused.status, service::JobStatus::failed);
  EXPECT_NE(refused.error.find("draining"), std::string::npos);
}

TEST_F(NetServerTest, ClientReconnectsToARestartedServerAndResubmits) {
  const auto path = "unix:" + (dir_ / "qross.sock").string();
  const auto endpoint = start(path);
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_EQ(client.wait(*client.submit(quick_job(51))).status,
            service::JobStatus::done);

  // Bounce the server (same service, same socket path) — a daemon restart
  // as seen by a long-lived client.
  server_.reset();
  ServerConfig config;
  config.listen.push_back(*Endpoint::parse(path));
  config.registry = [this](const std::string& name) -> solvers::SolverPtr {
    if (name == "count") {
      return std::make_shared<testing::CountingSolver>(
          std::make_shared<solvers::DigitalAnnealer>(), invocations_);
    }
    return default_solver_registry(name);
  };
  server_ = std::make_unique<Server>(*service_, config);
  ASSERT_TRUE(server_->start(&error)) << error;

  // The old socket is dead; submit() or wait() notices, redials, and
  // resubmits under the same tag.  The service cache makes the retry free.
  const auto tag = client.submit(quick_job(51), &error);
  ASSERT_TRUE(tag.has_value()) << error;
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::done);
  EXPECT_TRUE(result.cache_hit);
  EXPECT_EQ(invocations_.load(), 1);
}

// --- protocol robustness (raw sockets) --------------------------------------

class RawConnection {
 public:
  explicit RawConnection(const Endpoint& endpoint) {
    std::string error;
    sock_ = connect_to(endpoint, 2000, &error);
    EXPECT_TRUE(sock_.valid()) << error;
  }

  bool send_bytes(std::span<const std::uint8_t> bytes) {
    return sock_.send_all(bytes.data(), bytes.size());
  }

  bool send_frame(std::uint32_t type, std::span<const std::uint8_t> payload) {
    return send_bytes(frame(type, payload));
  }

  /// Reads until one full frame arrives (or 3 s pass).
  std::optional<Frame> read_frame() {
    Frame out;
    std::uint8_t buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + 3s;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto status = buffer_.next(&out);
      if (status == FrameBuffer::Status::frame) return out;
      if (status != FrameBuffer::Status::need_more) return std::nullopt;
      const long n = sock_.recv_some(buf, sizeof(buf), 100);
      if (n == -2) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
    return std::nullopt;
  }

  bool handshake() {
    if (!send_frame(io::kRecordNetHello, encode_hello({}))) return false;
    const auto ack = read_frame();
    return ack.has_value() && ack->type == io::kRecordNetHelloAck;
  }

  void half_close() { ::shutdown(sock_.fd(), SHUT_WR); }

  const Socket& socket() const { return sock_; }

 private:
  Socket sock_;
  FrameBuffer buffer_;
};

TEST_F(NetServerTest, FutureProtocolVersionGetsACleanErrorFrame) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  HelloFrame hello;
  hello.protocol_version = 99;
  ASSERT_TRUE(raw.send_frame(io::kRecordNetHello, encode_hello(hello)));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  const auto error = decode_error(reply->payload);
  EXPECT_EQ(error.code, kErrFutureVersion);
  // The server names its own version so the client can retry lower.
  EXPECT_EQ(error.protocol_version, kProtocolVersion);
  // The connection is closed after the error.
  EXPECT_FALSE(raw.read_frame().has_value());
}

TEST_F(NetServerTest, FlippedChecksumByteGetsACleanErrorFrame) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  auto bytes = frame(io::kRecordNetGetMetrics, {});
  bytes[8] ^= 0x01;  // corrupt the checksum field
  ASSERT_TRUE(raw.send_bytes(bytes));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrBadFrame);
  EXPECT_FALSE(raw.read_frame().has_value());
}

TEST_F(NetServerTest, TruncatedFrameGetsACleanErrorFrame) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  const auto bytes =
      frame(io::kRecordNetSubmitJob, encode_submit(SubmitJobFrame{}));
  ASSERT_GT(bytes.size(), 10u);
  ASSERT_TRUE(raw.send_bytes(
      std::span<const std::uint8_t>(bytes.data(), 10)));  // partial frame
  raw.half_close();  // EOF mid-frame; our read side stays open
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrTruncatedFrame);
}

TEST_F(NetServerTest, OversizedFrameIsRejectedBeforeBuffering) {
  const auto endpoint = start("tcp:127.0.0.1:0", {}, /*max_frame_bytes=*/4096);
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  // A frame HEADER claiming a huge payload; the body never follows — the
  // server must reject on the length field alone.
  io::ByteWriter header;
  header.u32(1u << 24);
  header.u32(io::kRecordNetSubmitJob);
  header.u64(0);
  ASSERT_TRUE(raw.send_bytes(header.bytes()));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrOversizedFrame);
  EXPECT_FALSE(raw.read_frame().has_value());
}

TEST_F(NetServerTest, RequestBeforeHandshakeIsRefused) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.send_frame(io::kRecordNetGetMetrics, {}));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrHandshakeRequired);
}

TEST_F(NetServerTest, UnknownFrameTypeGetsErrorButKeepsTheConnection) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  const std::uint8_t junk[3] = {1, 2, 3};
  ASSERT_TRUE(raw.send_frame(12345, junk));
  auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrUnknownType);
  // Still usable afterwards — mirroring the snapshot scanner's tolerance
  // of unknown record types.
  ASSERT_TRUE(raw.send_frame(io::kRecordNetGetMetrics, {}));
  reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, io::kRecordNetMetrics);
}

// --- admission control + fair share over the wire ----------------------------

// ISSUE 5 satellite: an accept over max_connections used to be silently
// ::close()d — the peer saw a reset and retried forever.  It must receive a
// kErrServerFull Error frame (then the close), and be counted.
TEST_F(NetServerTest, ConnectionOverMaxConnectionsGetsServerFullNotAReset) {
  const auto endpoint = start("tcp:127.0.0.1:0", {}, kMaxFrameBytes,
                              /*max_connections=*/1);
  RawConnection first(endpoint);
  ASSERT_TRUE(first.handshake());

  RawConnection second(endpoint);
  const auto reply = second.read_frame();
  ASSERT_TRUE(reply.has_value())
      << "over-limit accept must answer with an Error frame, not a bare close";
  ASSERT_EQ(reply->type, io::kRecordNetError);
  EXPECT_EQ(decode_error(reply->payload).code, kErrServerFull);
  EXPECT_FALSE(second.read_frame().has_value());  // closed after the frame
  EXPECT_TRUE(eventually(
      [&] { return server_->stats().connections_rejected_full >= 1; }));
  // The admitted connection is untouched.
  ASSERT_TRUE(first.send_frame(io::kRecordNetGetMetrics, {}));
  const auto metrics_reply = first.read_frame();
  ASSERT_TRUE(metrics_reply.has_value());
  EXPECT_EQ(metrics_reply->type, io::kRecordNetMetrics);
  EXPECT_EQ(decode_metrics(metrics_reply->payload).connections_rejected_full,
            1u);
}

// ISSUE 5 satellite: a quota refusal is PERMANENT for the client's current
// standing — the client must fail the job on the first kErrQuotaExceeded
// frame instead of resubmitting it.
TEST_F(NetServerTest, QuotaExceededFailsTheJobWithoutRetries) {
  service::ServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_inflight_per_client = 1;
  const auto endpoint = start("tcp:127.0.0.1:0", service_config);
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  const auto slow = client.submit(slow_job());
  ASSERT_TRUE(slow.has_value());
  ASSERT_TRUE(eventually([&] { return service_->metrics().running > 0; }));
  const auto refused = client.submit(quick_job());
  ASSERT_TRUE(refused.has_value());
  const auto result = client.wait(*refused);
  EXPECT_EQ(result.status, service::JobStatus::failed);
  EXPECT_NE(result.error.find("quota"), std::string::npos) << result.error;
  const auto errors = client.take_errors();
  ASSERT_EQ(errors.size(), 1u) << "exactly one refusal: no resubmit loop";
  EXPECT_EQ(errors[0].code, kErrQuotaExceeded);
  // An admission refusal is not a protocol violation: the peer spoke the
  // protocol correctly and the rejection has its own counter.
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
  EXPECT_EQ(service_->metrics().admission_rejected, 1u);

  ASSERT_TRUE(client.cancel(*slow));
  EXPECT_EQ(client.wait(*slow).status, service::JobStatus::cancelled);
}

// ISSUE 5 satellite: the submit handler used to map EVERY service.submit()
// exception to kErrDraining, reporting permanently-invalid jobs as
// retryable.  An invalid job must be kErrBadRequest, failed exactly once.
TEST_F(NetServerTest, InvalidJobIsBadRequestNotDrainingAndNotRetried) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  RemoteJob invalid = quick_job();
  invalid.num_replicas = 0;  // the service refuses this at submit()
  const auto result = client.wait(*client.submit(invalid));
  EXPECT_EQ(result.status, service::JobStatus::failed);
  EXPECT_NE(result.error.find("num_replicas"), std::string::npos)
      << result.error;
  const auto errors = client.take_errors();
  ASSERT_EQ(errors.size(), 1u) << "permanent refusal must not be retried";
  EXPECT_EQ(errors[0].code, kErrBadRequest);
  EXPECT_EQ(server_->stats().protocol_errors, 1u);
  EXPECT_EQ(invocations_.load(), 0);

  // The connection survives; a valid job still runs.
  EXPECT_EQ(client.wait(*client.submit(quick_job())).status,
            service::JobStatus::done);
}

// The retryable side of the taxonomy: a kErrDraining refusal keeps the job
// pending and the client resubmits it (with backoff) under its original
// tag.  Scripted one-connection server: first SubmitJob → kErrDraining,
// the resubmit → a done Result.
TEST_F(NetServerTest, DrainingRefusalIsRetriedWithBackoffUntilAccepted) {
  std::string error;
  auto listener = listen_on(*Endpoint::parse("tcp:127.0.0.1:0"), &error);
  ASSERT_TRUE(listener.valid()) << error;
  const auto endpoint = local_endpoint(listener.fd());
  ASSERT_TRUE(endpoint.has_value());

  std::atomic<int> submits_seen{0};
  std::thread scripted([&] {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd < 0) return;
    Socket conn(fd);
    FrameBuffer in;
    std::uint8_t buf[65536];
    const auto reply = [&](std::uint32_t type,
                           std::span<const std::uint8_t> payload) {
      const auto bytes = frame(type, payload);
      conn.send_all(bytes.data(), bytes.size());
    };
    bool finished = false;
    while (!finished) {
      const long n = conn.recv_some(buf, sizeof(buf), 5000);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
      Frame f;
      while (in.next(&f) == FrameBuffer::Status::frame) {
        if (f.type == io::kRecordNetHello) {
          reply(io::kRecordNetHelloAck, encode_hello_ack({}));
        } else if (f.type == io::kRecordNetSubmitJob) {
          const auto submit = decode_submit(f.payload);
          if (++submits_seen == 1) {
            ErrorFrame busy;
            busy.tag = submit.tag;
            busy.code = kErrDraining;
            busy.message = "scripted: draining";
            reply(io::kRecordNetError, encode_error(busy));
          } else {
            ResultFrame result;
            result.tag = submit.tag;
            result.status = service::JobStatus::done;
            qubo::SolveBatch batch;
            batch.results.push_back({{1, 0, 1}, -1.0});
            result.batch =
                std::make_shared<const qubo::SolveBatch>(std::move(batch));
            reply(io::kRecordNetResult, encode_result(result));
            finished = true;
          }
        }
      }
    }
  });

  auto client = make_client(*endpoint, /*request_timeout_ms=*/10000);
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto tag = client.submit(quick_job(61));
  ASSERT_TRUE(tag.has_value());
  const auto result = client.wait(*tag);
  EXPECT_EQ(result.status, service::JobStatus::done)
      << "retryable refusal must be resubmitted, got: " << result.error;
  EXPECT_EQ(submits_seen.load(), 2) << "refused once, resubmitted once";
  scripted.join();
}

// The retryable side of kErrServerFull: connect() backs off and redials
// until a connection slot frees (instead of failing on the first refusal).
TEST_F(NetServerTest, ConnectRetriesWithBackoffWhileServerFull) {
  const auto endpoint = start("tcp:127.0.0.1:0", {}, kMaxFrameBytes,
                              /*max_connections=*/1);
  auto occupant = std::make_unique<RawConnection>(endpoint);
  ASSERT_TRUE(occupant->handshake());
  std::thread freer([&] {
    std::this_thread::sleep_for(100ms);
    occupant.reset();  // the slot frees mid-retry
  });
  ClientConfig config;
  config.server = endpoint;
  config.reconnect_backoff_ms = 50;
  config.reconnect_attempts = 10;
  Client client(config);
  std::string error;
  EXPECT_TRUE(client.connect(&error))
      << "connect must retry a full server: " << error;
  freer.join();
  EXPECT_GE(server_->stats().connections_rejected_full, 1u)
      << "the first attempt should have been refused as full";
}

TEST_F(NetServerTest, MetricsReportPerClientSchedulerRows) {
  service::ServiceConfig service_config;
  service_config.client_weights["tenant-a"] = 2.0;
  const auto endpoint = start("tcp:127.0.0.1:0", service_config);
  auto tenant = make_client(endpoint, 30000, "tenant-a");
  auto anon = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(tenant.connect(&error)) << error;
  ASSERT_TRUE(anon.connect(&error)) << error;

  ASSERT_EQ(tenant.wait(*tenant.submit(quick_job(71))).status,
            service::JobStatus::done);
  ASSERT_EQ(anon.wait(*anon.submit(quick_job(72))).status,
            service::JobStatus::done);

  const auto metrics = tenant.metrics(&error);
  ASSERT_TRUE(metrics.has_value()) << error;
  EXPECT_EQ(metrics->client_id, "tenant-a");
  ASSERT_EQ(metrics->clients.size(), 2u);
  // Hello-named identity and the per-connection fallback, side by side.
  EXPECT_EQ(metrics->clients[0].client_id, "conn-2");
  EXPECT_EQ(metrics->clients[1].client_id, "tenant-a");
  EXPECT_EQ(metrics->clients[1].weight, 2.0);
  EXPECT_EQ(metrics->clients[1].submitted, 1u);
  EXPECT_EQ(metrics->clients[1].completed, 1u);
  EXPECT_EQ(metrics->clients[1].dispatched, 1u);

  const auto anon_metrics = anon.metrics(&error);
  ASSERT_TRUE(anon_metrics.has_value()) << error;
  EXPECT_EQ(anon_metrics->client_id, "conn-2");
}

// --- observability over the wire (ISSUE 7) ----------------------------------

// One remote job must leave a stitched server-side trace — queue, dispatch,
// kernel, journal_append, result_flush — all carrying the client-supplied
// trace id, fetchable over the wire as Chrome trace-event JSON.
TEST_F(NetServerTest, TraceDumpStitchesARemoteJobEndToEnd) {
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable(obs::TraceRecorder::kDefaultCapacity);
  recorder.clear();

  // A journal-backed service so the trace includes the journal_append span.
  service::ServiceConfig service_config;
  service_config.cache_path = (dir_ / "cache.qsnap").string();
  const auto endpoint =
      start("unix:" + (dir_ / "qross.sock").string(), service_config);

  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  RemoteJob job;
  job.solver = "da";
  job.model = test_model(31);
  job.num_replicas = 4;
  job.num_sweeps = 20;
  job.trace_id = 0xBEEFCAFE;
  const auto tag = client.submit(job, &error);
  ASSERT_TRUE(tag.has_value()) << error;
  ASSERT_EQ(client.wait(*tag).status, service::JobStatus::done);

  // The journal append trails completion; poll the wire dump until it lands.
  std::string json;
  ASSERT_TRUE(eventually([&] {
    const auto dump = client.trace_dump(&error);
    if (!dump.has_value()) return false;
    json = *dump;
    return json.find("\"name\":\"journal_append\"") != std::string::npos;
  })) << "journal_append span never appeared in the dump: " << error;

  for (const char* name :
       {"frame_decode", "submit", "queue", "dispatch", "kernel",
        "journal_append", "result_flush"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << "missing event " << name;
  }
  EXPECT_NE(json.find("\"trace\":3203386110"), std::string::npos)
      << "client trace id 0xBEEFCAFE missing from the server-side spans";
  recorder.disable();
  recorder.clear();
}

// A daemon that never enabled tracing still answers GetTrace — with an
// empty, valid Chrome JSON document, not an error.
TEST_F(NetServerTest, TraceDumpWithTracingOffIsEmptyButValid) {
  obs::TraceRecorder::instance().disable();
  obs::TraceRecorder::instance().clear();
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto dump = client.trace_dump(&error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_NE(dump->find("\"traceEvents\":[]"), std::string::npos);
}

// The Prometheus exposition travels the wire and looks like Prometheus.
TEST_F(NetServerTest, PrometheusMetricsRoundTripOverTheWire) {
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  ASSERT_EQ(client.wait(*client.submit(quick_job(55))).status,
            service::JobStatus::done);

  const auto text = client.prometheus_metrics(&error);
  ASSERT_TRUE(text.has_value()) << error;
  EXPECT_NE(text->find("# TYPE qross_jobs_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text->find("# TYPE qross_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text->find("# TYPE qross_run_ms histogram"), std::string::npos);
  EXPECT_NE(text->find("qross_run_ms_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_NE(text->find("qross_net_frames_received_total"), std::string::npos);
}

// --- transport: no Nagle stall, deferred flush -----------------------------

/// The server's end of a loopback TCP connection: the fd in this process
/// whose local address is `client_fd`'s peer and whose peer is `client_fd`'s
/// local address (client and server share the process in these tests).
int accepted_fd_of(int client_fd) {
  sockaddr_in client_local{};
  sockaddr_in client_peer{};
  socklen_t len = sizeof(client_local);
  if (::getsockname(client_fd, reinterpret_cast<sockaddr*>(&client_local),
                    &len) != 0) {
    return -1;
  }
  len = sizeof(client_peer);
  if (::getpeername(client_fd, reinterpret_cast<sockaddr*>(&client_peer),
                    &len) != 0) {
    return -1;
  }
  for (int fd = 0; fd < 4096; ++fd) {
    if (fd == client_fd) continue;
    sockaddr_in local{};
    sockaddr_in peer{};
    len = sizeof(local);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET) {
      continue;
    }
    len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0) {
      continue;
    }
    if (local.sin_port == client_peer.sin_port &&
        peer.sin_port == client_local.sin_port) {
      return fd;
    }
  }
  return -1;
}

int tcp_nodelay_of(int fd) {
  int value = -1;
  socklen_t len = sizeof(value);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) {
    return -1;
  }
  return value;
}

TEST_F(NetServerTest, AcceptedTcpStreamsRunWithNoDelay) {
  const auto endpoint = start_tcp();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());  // the HelloAck proves the accept happened
  EXPECT_EQ(tcp_nodelay_of(raw.socket().fd()), 1);  // connect_to's side
  const int accepted = accepted_fd_of(raw.socket().fd());
  ASSERT_GE(accepted, 0) << "server end of the connection not found";
  EXPECT_EQ(tcp_nodelay_of(accepted), 1);
}

TEST_F(NetServerTest, UnixDomainAcceptSkipsTheTcpOption) {
  const auto endpoint = start_unix();
  RawConnection raw(endpoint);
  ASSERT_TRUE(raw.handshake());
  // The helper leaves a Unix stream alone (it has no Nagle to disable),
  // and the stream keeps working.
  set_tcp_nodelay(raw.socket().fd());
  ASSERT_TRUE(raw.send_frame(io::kRecordNetGetMetrics, {}));
  const auto reply = raw.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, io::kRecordNetMetrics);
}

TEST_F(NetServerTest, CacheWarmBurstsDoNotWaitForDelayedAcks) {
  // Each burst's results leave the server as many small frames.  With
  // Nagle on the server's socket, all but the first wait for the client's
  // ACK, which Linux delays by at least 40 ms; a burst of cache hits takes
  // a few milliseconds without that stall.
  const auto endpoint = start_tcp();
  auto client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  std::vector<RemoteJob> jobs;
  for (std::uint64_t k = 0; k < 16; ++k) {
    RemoteJob job;
    job.solver = "count";
    job.model = test_model(100 + k, 8);
    job.num_replicas = 2;
    job.num_sweeps = 5;
    jobs.push_back(std::move(job));
  }
  for (const auto& result : client.run(jobs)) {  // fills the cache
    ASSERT_EQ(result.status, service::JobStatus::done) << result.error;
  }
  std::vector<double> burst_ms;
  for (int burst = 0; burst < 20; ++burst) {
    const auto begin = std::chrono::steady_clock::now();
    for (const auto& result : client.run(jobs)) {
      ASSERT_EQ(result.status, service::JobStatus::done) << result.error;
      ASSERT_TRUE(result.cache_hit);
    }
    burst_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - begin)
                           .count());
  }
  std::sort(burst_ms.begin(), burst_ms.end());
  EXPECT_LT(burst_ms[burst_ms.size() / 2], 30.0)
      << "median 16-job cache-warm burst; the delayed-ACK floor is 40 ms";
  EXPECT_EQ(invocations_.load(), 16);
}

TEST_F(NetServerTest, SlowReaderGetsEveryResultIntactAndBlocksNoOne) {
  // A peer that submits a flood of cache-warm jobs but reads nothing backs
  // its results up past both socket buffers; the reactor must park the
  // rest, keep serving other connections, and deliver everything once the
  // peer reads.
  const auto endpoint = start_tcp();
  RemoteJob job;
  job.solver = "count";
  job.model = test_model(77, 32);
  job.num_replicas = 4096;  // ~64 KiB per Result frame
  job.num_sweeps = 1;
  std::shared_ptr<const qubo::SolveBatch> reference;
  {
    auto warm = make_client(endpoint);
    std::string error;
    ASSERT_TRUE(warm.connect(&error)) << error;
    const auto result = warm.wait(*warm.submit(job));
    ASSERT_EQ(result.status, service::JobStatus::done) << result.error;
    reference = result.batch;
  }
  ASSERT_NE(reference, nullptr);

  // A small receive buffer, set before connect so the advertised window
  // is small from the first segment.
  Socket slow(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(slow.valid());
  const int rcvbuf = 4096;
  ::setsockopt(slow.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(slow.fd(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  FrameBuffer in;
  Frame f;
  auto read_frame = [&]() -> bool {
    std::uint8_t buf[65536];
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto status = in.next(&f);
      if (status == FrameBuffer::Status::frame) return true;
      if (status != FrameBuffer::Status::need_more) return false;
      const long n = slow.recv_some(buf, sizeof(buf), 100);
      if (n == -2) continue;
      if (n <= 0) return false;
      in.append(buf, static_cast<std::size_t>(n));
    }
    return false;
  };
  const auto hello = frame(io::kRecordNetHello, encode_hello({}));
  ASSERT_TRUE(slow.send_all(hello.data(), hello.size()));
  ASSERT_TRUE(read_frame());
  ASSERT_EQ(f.type, io::kRecordNetHelloAck);

  constexpr std::uint64_t kJobs = 160;  // ~10 MiB of Result frames
  std::vector<std::uint8_t> submits;
  for (std::uint64_t tag = 1; tag <= kJobs; ++tag) {
    SubmitJobFrame submit;
    submit.tag = tag;
    submit.solver = job.solver;
    submit.num_replicas = job.num_replicas;
    submit.num_sweeps = job.num_sweeps;
    submit.seed = job.seed;
    submit.model = job.model;
    append_frame(submits, io::kRecordNetSubmitJob, encode_submit(submit));
  }
  ASSERT_TRUE(slow.send_all(submits.data(), submits.size()));
  ASSERT_TRUE(eventually(
      [&] { return server_->stats().results_sent >= kJobs + 1; }, 20000ms));

  // Backed up: what the kernel holds (the server's send queue plus our
  // receive queue) is less than what was queued, so the rest sits in the
  // server's own buffer waiting for POLLOUT.
  const int accepted = accepted_fd_of(slow.fd());
  ASSERT_GE(accepted, 0);
  int unsent_in_kernel = 0;
  int unread = 0;
  ASSERT_EQ(::ioctl(accepted, SIOCOUTQ, &unsent_in_kernel), 0);
  ASSERT_EQ(::ioctl(slow.fd(), FIONREAD, &unread), 0);
  ResultFrame sample;
  sample.batch = reference;
  const std::size_t result_bytes =
      kJobs * frame(io::kRecordNetResult, encode_result(sample)).size();
  EXPECT_LT(static_cast<std::size_t>(unsent_in_kernel + unread),
            result_bytes / 2);

  // Meanwhile another connection is served promptly.
  {
    auto other = make_client(endpoint, /*request_timeout_ms=*/5000);
    std::string error;
    ASSERT_TRUE(other.connect(&error)) << error;
    const auto result = other.wait(*other.submit(quick_job(78)));
    EXPECT_EQ(result.status, service::JobStatus::done) << result.error;
  }

  // Now read: every Result arrives checksum-valid (FrameBuffer verifies),
  // exactly once per tag, with the cached batch bit for bit.
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < kJobs; ++k) {
    ASSERT_TRUE(read_frame()) << "after " << k << " results";
    ASSERT_EQ(f.type, io::kRecordNetResult);
    const auto result = decode_result(f.payload);
    EXPECT_TRUE(seen.insert(result.tag).second) << "tag " << result.tag;
    EXPECT_EQ(result.status, service::JobStatus::done);
    EXPECT_TRUE(result.cache_hit);
    ASSERT_NE(result.batch, nullptr);
    ASSERT_EQ(result.batch->size(), reference->size());
    for (std::size_t r = 0; r < reference->size(); ++r) {
      ASSERT_EQ(result.batch->results[r].assignment,
                reference->results[r].assignment);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    result.batch->results[r].qubo_energy),
                std::bit_cast<std::uint64_t>(
                    reference->results[r].qubo_energy));
    }
  }
  EXPECT_EQ(seen.size(), kJobs);
  EXPECT_EQ(*seen.begin(), 1u);
  EXPECT_EQ(*seen.rbegin(), kJobs);
  EXPECT_EQ(invocations_.load(), 2);  // the warm-up and quick_job(78)
}

}  // namespace
}  // namespace qross::net
