// Tuning-as-a-service over the wire: tune frame codecs (round trips and
// append-only legacy tolerance), the TSP instance transport helpers, and
// end-to-end sessions against a real Server + TuneService — bit-identity
// with in-process tuning, warm-cache replay, cancellation mid-session, and
// the error taxonomy for daemons without a tuner, the client's retry and
// reconnect paths for sessions, and the tag rules of the server's one
// request ledger shared by jobs and sessions.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "counting_solver.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "problems/tsp/generators.hpp"
#include "qross/facade.hpp"
#include "raw_connection.hpp"
#include "service/tune_service.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/qbsolv.hpp"

namespace qross::net {
namespace {

// --- codecs -----------------------------------------------------------------

TEST(NetTuneProtocolTest, SubmitTuneRoundTripsAndToleratesLegacyPayload) {
  SubmitTuneFrame submit;
  submit.tag = 77;
  submit.solver = "da";
  submit.strategy = kTunePbs;
  submit.pf_target = 0.65;
  submit.trials = 12;
  submit.a_min = 2.5;
  submit.a_max = 80.0;
  submit.seed = 0xBEEF;
  submit.instance = pack_tsp_instance(tsp::generate_uniform(7, 0xC0));
  submit.trace_id = 0xFACE;
  submit.instance_name = "alpha";

  const auto decoded = decode_submit_tune(encode_submit_tune(submit));
  EXPECT_EQ(decoded.tag, 77u);
  EXPECT_EQ(decoded.solver, "da");
  EXPECT_EQ(decoded.strategy, kTunePbs);
  EXPECT_DOUBLE_EQ(decoded.pf_target, 0.65);
  EXPECT_EQ(decoded.trials, 12u);
  EXPECT_DOUBLE_EQ(decoded.a_min, 2.5);
  EXPECT_DOUBLE_EQ(decoded.a_max, 80.0);
  EXPECT_EQ(decoded.seed, 0xBEEFu);
  EXPECT_EQ(decoded.instance.num_vars(), 7u);
  EXPECT_EQ(decoded.trace_id, 0xFACEu);
  EXPECT_EQ(decoded.instance_name, "alpha");

  // trace_id + instance_name were appended within v1: a first-cut sender's
  // frame ends at the instance and must decode with defaulted tail.
  auto legacy_bytes = encode_submit_tune(submit);
  legacy_bytes.resize(legacy_bytes.size() - 8 - (4 + submit.instance_name.size()));
  const auto legacy = decode_submit_tune(legacy_bytes);
  EXPECT_EQ(legacy.trace_id, 0u);
  EXPECT_TRUE(legacy.instance_name.empty());
  EXPECT_EQ(legacy.instance.num_vars(), 7u);
  EXPECT_EQ(legacy.seed, 0xBEEFu);
}

TEST(NetTuneProtocolTest, TuneStatusRoundTripsAndToleratesLegacyPayload) {
  TuneStatusFrame status;
  status.tag = 9;
  status.trial = 3;
  status.total = 10;
  status.relaxation_parameter = 17.5;
  status.pf = 0.4;
  status.best_length = 123.25;
  status.energy_avg = -5.5;
  status.energy_std = 1.25;
  status.feasible = true;

  const auto decoded = decode_tune_status(encode_tune_status(status));
  EXPECT_EQ(decoded.trial, 3u);
  EXPECT_EQ(decoded.total, 10u);
  EXPECT_DOUBLE_EQ(decoded.relaxation_parameter, 17.5);
  EXPECT_DOUBLE_EQ(decoded.energy_avg, -5.5);
  EXPECT_DOUBLE_EQ(decoded.energy_std, 1.25);
  EXPECT_TRUE(decoded.feasible);

  // The batch-summary tail (energy_avg, energy_std, feasible) was appended
  // within v1; an old sender's frame ends at best_length and feasibility
  // falls back to the finiteness of that length.
  auto legacy_bytes = encode_tune_status(status);
  legacy_bytes.resize(legacy_bytes.size() - (8 + 8 + 1));
  const auto legacy = decode_tune_status(legacy_bytes);
  EXPECT_EQ(legacy.energy_avg, 0.0);
  EXPECT_EQ(legacy.energy_std, 0.0);
  EXPECT_TRUE(legacy.feasible) << "finite best_length implies feasibility";

  TuneStatusFrame infeasible = status;
  infeasible.best_length = std::numeric_limits<double>::infinity();
  auto infeasible_bytes = encode_tune_status(infeasible);
  infeasible_bytes.resize(infeasible_bytes.size() - (8 + 8 + 1));
  EXPECT_FALSE(decode_tune_status(infeasible_bytes).feasible);
}

TEST(NetTuneProtocolTest, TuneResultRoundTripsAndToleratesLegacyPayload) {
  TuneResultFrame result;
  result.tag = 4;
  result.status = kTuneDone;
  result.best_length = 77.5;
  result.best_parameter = 23.0;
  result.best_tour = {0, 3, 1, 2};
  result.trials = {{10.0, 0.2, 90.0}, {23.0, 0.6, 77.5}};
  result.solver_invocations = 2;
  result.wall_ms = 12.5;

  const auto decoded = decode_tune_result(encode_tune_result(result));
  EXPECT_EQ(decoded.status, kTuneDone);
  EXPECT_EQ(decoded.best_tour, (std::vector<std::uint32_t>{0, 3, 1, 2}));
  ASSERT_EQ(decoded.trials.size(), 2u);
  EXPECT_DOUBLE_EQ(decoded.trials[1].relaxation_parameter, 23.0);
  EXPECT_EQ(decoded.solver_invocations, 2u);
  EXPECT_DOUBLE_EQ(decoded.wall_ms, 12.5);

  // solver_invocations + wall_ms were appended within v1.
  auto legacy_bytes = encode_tune_result(result);
  legacy_bytes.resize(legacy_bytes.size() - (8 + 8));
  const auto legacy = decode_tune_result(legacy_bytes);
  EXPECT_EQ(legacy.solver_invocations, 0u);
  EXPECT_EQ(legacy.wall_ms, 0.0);
  EXPECT_EQ(legacy.best_tour, result.best_tour);
  ASSERT_EQ(legacy.trials.size(), 2u);

  TuneResultFrame failed;
  failed.tag = 5;
  failed.status = kTuneFailed;
  failed.error = "solver exploded";
  const auto failed_decoded = decode_tune_result(encode_tune_result(failed));
  EXPECT_EQ(failed_decoded.status, kTuneFailed);
  EXPECT_EQ(failed_decoded.error, "solver exploded");
  EXPECT_TRUE(failed_decoded.best_tour.empty());
}

TEST(NetTuneProtocolTest, CancelTuneRoundTrips) {
  CancelTuneFrame cancel;
  cancel.tag = 31;
  EXPECT_EQ(decode_cancel_tune(encode_cancel_tune(cancel)).tag, 31u);
}

TEST(NetTuneProtocolTest, TspInstanceTransportIsBitExact) {
  const auto instance = tsp::generate_clustered(9, 0xC1);
  const auto unpacked =
      unpack_tsp_instance(pack_tsp_instance(instance), instance.name());
  ASSERT_EQ(unpacked.num_cities(), instance.num_cities());
  EXPECT_EQ(unpacked.name(), instance.name());
  for (std::size_t i = 0; i < instance.num_cities(); ++i) {
    for (std::size_t j = 0; j < instance.num_cities(); ++j) {
      EXPECT_EQ(unpacked.distance(i, j), instance.distance(i, j))
          << "distance(" << i << ", " << j << ") not IEEE-exact";
    }
  }
}

// --- end to end -------------------------------------------------------------

solvers::SolveOptions fast_options() {
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 10;
  options.seed = 3;
  return options;
}

/// Delegates to the digital annealer for its first `budget` probes, then
/// holds every later one until its stop token trips: a session that streams
/// a known prefix of trials and then ends only by cancellation.
class StallingSolver final : public solvers::QuboSolver {
 public:
  explicit StallingSolver(int budget) : budget_(budget) {}
  std::string name() const override { return inner_->name(); }
  std::uint64_t config_digest() const override {
    return inner_->config_digest();
  }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override {
    if (calls_.fetch_add(1) < budget_) return inner_->solve(model, options);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!options.stop.stop_requested() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return {};
  }

 private:
  solvers::SolverPtr inner_ = std::make_shared<solvers::DigitalAnnealer>();
  int budget_;
  mutable std::atomic<int> calls_{0};
};

/// Holds every solve until `open` is set (or its stop token trips), then
/// delegates to the digital annealer: keeps a request in flight for exactly
/// as long as a test needs it there.
class GatedSolver final : public solvers::QuboSolver {
 public:
  explicit GatedSolver(const std::atomic<bool>& open) : open_(open) {}
  std::string name() const override { return inner_->name(); }
  std::uint64_t config_digest() const override {
    return inner_->config_digest();
  }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!open_.load() && !options.stop.stop_requested() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return inner_->solve(model, options);
  }

 private:
  solvers::SolverPtr inner_ = std::make_shared<solvers::DigitalAnnealer>();
  const std::atomic<bool>& open_;
};

class NetTuneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    solvers::QbsolvParams params;
    params.num_rounds = 1;
    params.subsolver_sweeps = 10;
    surrogate::SweepConfig sweep;
    sweep.slope_points = 5;
    sweep.plateau_points = 1;
    sweep.bisection_steps = 5;
    tuner_ = new core::QrossTuner(core::QrossTuner::fit(
        tsp::generate_synthetic_dataset(8, 6, 9, 0xFACADE),
        std::make_shared<solvers::Qbsolv>(params), fast_options(), sweep));
  }
  static void TearDownTestSuite() {
    delete tuner_;
    tuner_ = nullptr;
  }

  void TearDown() override {
    gate_open_ = true;
    server_.reset();
    tune_service_.reset();
    service_.reset();
  }

  /// Builds SolveService + TuneService + Server on an ephemeral TCP port.
  /// `with_tuner` = false leaves ServerConfig::tune null (the daemon-
  /// without---tuner configuration).  `slow_probes` gives the service a
  /// tuner whose probe solves run ~50M sweeps, so only cancellation paths
  /// can end a session within the test.
  Endpoint start(bool with_tuner = true, bool slow_probes = false,
                 std::size_t max_sessions = 4,
                 const std::string& listen_spec = "tcp:127.0.0.1:0") {
    service_ = std::make_unique<service::SolveService>();
    if (with_tuner) {
      solvers::SolveOptions probe_options = fast_options();
      if (slow_probes) probe_options.num_sweeps = 50'000'000;
      service::TuneServiceConfig tune_config;
      tune_config.max_sessions = max_sessions;
      tune_service_ = std::make_unique<service::TuneService>(
          core::QrossTuner(tuner_->surrogate(), probe_options), *service_,
          tune_config);
    }
    return start_server(listen_spec);
  }

  /// (Re)starts the Server alone over the existing services: a daemon
  /// restart as a connected client sees it.  "count" resolves to a
  /// CountingSolver around the digital annealer, or to a StallingSolver
  /// while stall_after_ >= 0; "gated" to a GatedSolver on gate_open_.
  Endpoint start_server(const std::string& listen_spec) {
    server_.reset();
    ServerConfig config;
    config.listen.push_back(*Endpoint::parse(listen_spec));
    config.registry = [this](const std::string& name) -> solvers::SolverPtr {
      if (name == "count") {
        if (stall_after_ >= 0) {
          return std::make_shared<StallingSolver>(stall_after_);
        }
        return std::make_shared<testing::CountingSolver>(
            std::make_shared<solvers::DigitalAnnealer>(), invocations_);
      }
      if (name == "gated") return std::make_shared<GatedSolver>(gate_open_);
      return default_solver_registry(name);
    };
    config.tune = tune_service_.get();
    server_ = std::make_unique<Server>(*service_, config);
    std::string error;
    if (!server_->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
      return {};
    }
    return server_->endpoints().front();
  }

  Client make_client(const Endpoint& endpoint,
                     int request_timeout_ms = 60000) {
    ClientConfig config;
    config.server = endpoint;
    config.request_timeout_ms = request_timeout_ms;
    config.reconnect_backoff_ms = 10;
    return Client(config);
  }

  static RemoteTune tune_request(const tsp::TspInstance& instance,
                                 std::uint32_t trials = 4,
                                 std::uint64_t seed = 21) {
    RemoteTune tune;
    tune.solver = "count";
    tune.instance = pack_tsp_instance(instance);
    tune.instance_name = instance.name();
    tune.trials = trials;
    tune.seed = seed;
    return tune;
  }

  static core::QrossTuner* tuner_;
  std::atomic<int> invocations_{0};
  std::atomic<bool> gate_open_{true};
  int stall_after_ = -1;
  std::unique_ptr<service::SolveService> service_;
  std::unique_ptr<service::TuneService> tune_service_;
  std::unique_ptr<Server> server_;
};

core::QrossTuner* NetTuneTest::tuner_ = nullptr;

TEST_F(NetTuneTest, RemoteTuneIsBitIdenticalToInProcessTuning) {
  const auto instance = tsp::generate_uniform(8, 0xD001);

  // The in-process reference, with the exact solver the server registry
  // resolves for "count" (CountingSolver keeps the inner identity).
  core::TuneOptions options;
  options.trials = 4;
  options.seed = 21;
  const core::TuneOutcome direct = tuner_->tune(
      instance, std::make_shared<solvers::DigitalAnnealer>(), options);

  const auto endpoint = start();
  Client client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  const auto submitted = client.submit_tune(tune_request(instance));
  ASSERT_TRUE(submitted.ok()) << submitted.error().message;
  auto outcome = client.tune_wait(submitted.value());
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const TuneResultFrame& result = outcome.value();

  ASSERT_EQ(result.status, kTuneDone) << result.error;
  ASSERT_EQ(result.trials.size(), direct.trials.size());
  for (std::size_t t = 0; t < direct.trials.size(); ++t) {
    EXPECT_EQ(result.trials[t].relaxation_parameter,
              direct.trials[t].relaxation_parameter)
        << "probed-A sequence diverged at trial " << t;
    EXPECT_EQ(result.trials[t].pf, direct.trials[t].pf);
    EXPECT_EQ(result.trials[t].best_length_so_far,
              direct.trials[t].best_length_so_far);
  }
  EXPECT_EQ(result.best_length, direct.best_length);
  EXPECT_EQ(result.best_parameter, direct.best_parameter);
  ASSERT_EQ(result.best_tour.size(), direct.best_tour.size());
  for (std::size_t k = 0; k < direct.best_tour.size(); ++k) {
    EXPECT_EQ(static_cast<std::size_t>(result.best_tour[k]),
              direct.best_tour[k]);
  }

  // Per-trial progress streamed alongside, in order, matching the result.
  const auto updates = client.tune_status(submitted.value());
  ASSERT_EQ(updates.size(), 4u);
  for (std::size_t t = 0; t < updates.size(); ++t) {
    EXPECT_EQ(updates[t].trial, t);
    EXPECT_EQ(updates[t].total, 4u);
    EXPECT_EQ(updates[t].relaxation_parameter,
              result.trials[t].relaxation_parameter);
  }
}

// forget() is the way out for a long-lived client: it drops a finished
// session's status history along with everything else kept for its tag.
TEST_F(NetTuneTest, ForgetDropsTheSessionsClientSideState) {
  const auto endpoint = start();
  Client client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  const auto tag =
      client.submit_tune(tune_request(tsp::generate_uniform(8, 0xD00B)));
  ASSERT_TRUE(tag.ok()) << tag.error().message;
  const auto outcome = client.tune_wait(tag.value());
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  ASSERT_EQ(client.tune_status(tag.value()).size(), 4u);

  client.forget(tag.value());
  EXPECT_TRUE(client.tune_status(tag.value()).empty());
  const auto again = client.tune_wait(tag.value());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().kind, RemoteErrorKind::usage);
}

TEST_F(NetTuneTest, RepeatedRemoteSessionReplaysWithZeroSolverInvocations) {
  const auto instance = tsp::generate_uniform(8, 0xD002);
  const auto endpoint = start();
  Client client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  const auto first_tag = client.submit_tune(tune_request(instance));
  ASSERT_TRUE(first_tag.ok());
  const auto first = client.tune_wait(first_tag.value());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().status, kTuneDone);
  EXPECT_EQ(first.value().solver_invocations, 4u);
  EXPECT_EQ(invocations_.load(), 4);

  // Same session against the warm daemon: every probe is a cache hit.
  const auto second_tag = client.submit_tune(tune_request(instance));
  ASSERT_TRUE(second_tag.ok());
  const auto second = client.tune_wait(second_tag.value());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().status, kTuneDone);
  EXPECT_EQ(second.value().solver_invocations, 0u)
      << "warm repeat must not invoke the solver";
  EXPECT_EQ(invocations_.load(), 4);
  EXPECT_EQ(second.value().best_tour, first.value().best_tour);
}

TEST_F(NetTuneTest, CancelMidSessionStopsTheLoserPromptly) {
  const auto endpoint = start(/*with_tuner=*/true, /*slow_probes=*/true);
  Client client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  const auto tag = client.submit_tune(
      tune_request(tsp::generate_uniform(8, 0xD003), /*trials=*/3));
  ASSERT_TRUE(tag.ok());
  // Let the first ~50M-sweep probe start, then cancel: the session's
  // StopToken must end the probe within one sweep and the terminal
  // TuneResult (status = cancelled) must still arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(client.cancel_tune(tag.value()));
  const auto started = std::chrono::steady_clock::now();
  const auto outcome = client.tune_wait(tag.value());
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(outcome.value().status, kTuneCancelled);
  EXPECT_LT(outcome.value().trials.size(), 3u);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(30))
      << "cancellation must not wait for the 50M-sweep probe";
  EXPECT_EQ(tune_service_->metrics().sessions_cancelled, 1u);
}

TEST_F(NetTuneTest, DisconnectCancelsInFlightTuneSessions) {
  const auto endpoint = start(/*with_tuner=*/true, /*slow_probes=*/true);
  {
    Client client = make_client(endpoint);
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto tag = client.submit_tune(
        tune_request(tsp::generate_uniform(8, 0xD004), /*trials=*/3));
    ASSERT_TRUE(tag.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }  // hangup with the session still running

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (tune_service_->metrics().sessions_cancelled == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(tune_service_->metrics().sessions_cancelled, 1u)
      << "hangup must trip the orphaned session's StopToken";
  EXPECT_EQ(server_->stats().disconnect_cancelled_tunes, 1u);
}

TEST_F(NetTuneTest, DaemonWithoutTunerRefusesTuningPermanently) {
  const auto endpoint = start(/*with_tuner=*/false);
  Client client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  const auto tag =
      client.submit_tune(tune_request(tsp::generate_uniform(8, 0xD005)));
  ASSERT_TRUE(tag.ok());
  const auto outcome = client.tune_wait(tag.value());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().kind, RemoteErrorKind::refused);
  EXPECT_EQ(outcome.error().code, kErrTuningUnavailable);
  EXPECT_FALSE(outcome.error().retryable())
      << "no amount of resubmitting conjures a tuner into the daemon";

  // The solve path is untouched: the same connection still serves jobs.
  RemoteJob job;
  job.solver = "count";
  job.model = pack_tsp_instance(tsp::generate_uniform(6, 0xD006));
  job.num_replicas = 2;
  job.num_sweeps = 10;
  const auto job_tag = client.submit_job(job);
  ASSERT_TRUE(job_tag.ok());
  const auto job_result = client.wait_result(job_tag.value());
  ASSERT_TRUE(job_result.ok());
  EXPECT_EQ(job_result.value().status, service::JobStatus::done);
}

TEST_F(NetTuneTest, BadStrategyCodeIsRejectedAsBadRequest) {
  const auto endpoint = start();
  Client client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;

  RemoteTune tune = tune_request(tsp::generate_uniform(8, 0xD007));
  tune.strategy = 200;  // not a TuneStrategyCode
  const auto tag = client.submit_tune(tune);
  ASSERT_TRUE(tag.ok());
  const auto outcome = client.tune_wait(tag.value());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().kind, RemoteErrorKind::refused);
  EXPECT_EQ(outcome.error().code, kErrBadRequest);
  EXPECT_FALSE(outcome.error().retryable());
}

// The retryable side of the tune taxonomy: a kErrServerFull refusal (the
// session quota) keeps the session pending and tune_wait() resubmits it
// under its original tag.  Scripted one-connection server: first SubmitTune
// → kErrServerFull, the resubmit → a done TuneResult.
TEST_F(NetTuneTest, RetryableTuneRefusalIsResubmittedUntilAccepted) {
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
      const auto bytes = frame(type, payload, in.version());
      conn.send_all(bytes.data(), bytes.size());
    };
    // Reads until the client hangs up, so a third SubmitTune is counted too.
    while (true) {
      const long n = conn.recv_some(buf, sizeof(buf), 10000);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
      Frame f;
      while (in.next(&f) == FrameBuffer::Status::frame) {
        if (f.type == io::kRecordNetHello) {
          reply(io::kRecordNetHelloAck, encode_hello_ack({}));
          in.set_version(kProtocolVersion);
        } else if (f.type == io::kRecordNetSubmitTune) {
          const auto submit = decode_submit_tune(f.payload);
          if (++submits_seen == 1) {
            ErrorFrame full;
            full.tag = submit.tag;
            full.code = kErrServerFull;
            full.message = "scripted: session quota full";
            reply(io::kRecordNetError, encode_error(full));
          } else {
            TuneResultFrame result;
            result.tag = submit.tag;
            result.status = kTuneDone;
            result.best_length = 1.0;
            reply(io::kRecordNetTuneResult, encode_tune_result(result));
          }
        }
      }
    }
  });

  {
    Client client = make_client(*endpoint, /*request_timeout_ms=*/10000);
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto tag = client.submit_tune(
        tune_request(tsp::generate_uniform(8, 0xD008)));
    ASSERT_TRUE(tag.ok()) << tag.error().message;
    const auto outcome = client.tune_wait(tag.value());
    ASSERT_TRUE(outcome.ok())
        << "retryable refusal must be resubmitted, got: "
        << outcome.error().message;
    EXPECT_EQ(outcome.value().tag, tag.value());
    EXPECT_EQ(outcome.value().status, kTuneDone);
  }  // hangup ends the scripted server
  scripted.join();
  EXPECT_EQ(submits_seen.load(), 2) << "refused once, resubmitted once";
}

// A daemon restart between submit_tune and tune_wait.  The hangup cancels
// the session server-side, so the client redials, resubmits it under its
// original tag and drops the progress the dead session streamed: the
// replacement streams from trial 0 and ends where in-process tuning does.
TEST_F(NetTuneTest, ClientReconnectsAndResubmitsTuneSession) {
  const auto instance = tsp::generate_uniform(8, 0xD009);
  core::TuneOptions options;
  options.trials = 4;
  options.seed = 21;
  const core::TuneOutcome direct = tuner_->tune(
      instance, std::make_shared<solvers::DigitalAnnealer>(), options);

  const auto socket_path = std::filesystem::path(::testing::TempDir()) /
                           "qross_tune_reconnect.sock";
  std::filesystem::remove(socket_path);
  const std::string listen_spec = "unix:" + socket_path.string();
  stall_after_ = 2;  // the first daemon streams two trials, then hangs
  const auto endpoint = start(/*with_tuner=*/true, /*slow_probes=*/false,
                              /*max_sessions=*/4, listen_spec);
  Client client = make_client(endpoint);
  std::string error;
  ASSERT_TRUE(client.connect(&error)) << error;
  const auto tag = client.submit_tune(tune_request(instance));
  ASSERT_TRUE(tag.ok()) << tag.error().message;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (client.tune_status(tag.value()).size() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(client.poll(50, &error)) << error;
  }
  ASSERT_EQ(client.tune_status(tag.value()).size(), 2u);

  // Bounce the daemon: same services, same socket path.  The reset joins
  // the reactor, the only reader of stall_after_.
  server_.reset();
  stall_after_ = -1;
  start_server(listen_spec);

  auto outcome = client.tune_wait(tag.value());
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const TuneResultFrame& result = outcome.value();
  ASSERT_EQ(result.status, kTuneDone) << result.error;
  ASSERT_EQ(result.trials.size(), direct.trials.size());
  for (std::size_t t = 0; t < direct.trials.size(); ++t) {
    EXPECT_EQ(result.trials[t].relaxation_parameter,
              direct.trials[t].relaxation_parameter)
        << "probed-A sequence diverged at trial " << t;
    EXPECT_EQ(result.trials[t].pf, direct.trials[t].pf);
    EXPECT_EQ(result.trials[t].best_length_so_far,
              direct.trials[t].best_length_so_far);
  }
  EXPECT_EQ(result.best_length, direct.best_length);
  EXPECT_EQ(result.best_parameter, direct.best_parameter);

  const auto updates = client.tune_status(tag.value());
  ASSERT_EQ(updates.size(), 4u)
      << "the dead session's two trials must be dropped on resubmit";
  for (std::size_t t = 0; t < updates.size(); ++t) {
    EXPECT_EQ(updates[t].trial, t);
    EXPECT_EQ(updates[t].relaxation_parameter,
              result.trials[t].relaxation_parameter);
  }
}

// --- one request ledger per connection ------------------------------------
//
// A connection's jobs and tune sessions share one tag space: a tag names
// one in-flight request of either kind.  Raw frames pick the tags, and the
// "gated" solver holds the first request in flight while the next arrives.

using testing::RawConnection;

std::vector<std::uint8_t> gated_job(std::uint64_t tag) {
  SubmitJobFrame submit;
  submit.tag = tag;
  submit.solver = "gated";
  submit.model = pack_tsp_instance(tsp::generate_uniform(6, 0xD100 + tag));
  submit.num_replicas = 2;
  submit.num_sweeps = 10;
  return encode_submit(submit);
}

std::vector<std::uint8_t> gated_tune(std::uint64_t tag) {
  SubmitTuneFrame submit;
  submit.tag = tag;
  submit.solver = "gated";
  submit.trials = 2;
  submit.seed = 21;
  submit.instance = pack_tsp_instance(tsp::generate_uniform(8, 0xD200 + tag));
  return encode_submit_tune(submit);
}

/// The next frame that is not a tune session's progress (TuneStatus), or
/// an empty frame (type 0) when none arrives within 30 s.
Frame next_reply(RawConnection& raw) {
  while (auto f = raw.read_frame(std::chrono::seconds(30))) {
    if (f->type != io::kRecordNetTuneStatus) return std::move(*f);
  }
  return {};
}

void expect_error(const Frame& reply, std::uint64_t tag, std::uint32_t code,
                  const std::string& message) {
  ASSERT_EQ(reply.type, io::kRecordNetError);
  const auto error = decode_error(reply.payload);
  EXPECT_EQ(error.tag, tag);
  EXPECT_EQ(error.code, code);
  EXPECT_EQ(error.message, message);
}

void expect_job_done(const Frame& reply, std::uint64_t tag) {
  ASSERT_EQ(reply.type, io::kRecordNetResult);
  const auto result = decode_result(reply.payload);
  EXPECT_EQ(result.tag, tag);
  EXPECT_EQ(result.status, service::JobStatus::done) << result.error;
}

void expect_tune_done(const Frame& reply, std::uint64_t tag) {
  ASSERT_EQ(reply.type, io::kRecordNetTuneResult);
  const auto result = decode_tune_result(reply.payload);
  EXPECT_EQ(result.tag, tag);
  EXPECT_EQ(result.status, kTuneDone) << result.error;
  EXPECT_EQ(result.trials.size(), 2u);
}

TEST_F(NetTuneTest, TuneReusingAnInFlightJobTagIsRefused) {
  RawConnection raw(start());
  ASSERT_TRUE(raw.handshake());
  gate_open_ = false;
  ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitJob, gated_job(5)));
  ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitTune, gated_tune(5)));
  expect_error(next_reply(raw), 5, kErrBadRequest,
               "tag already has an in-flight request");
  gate_open_ = true;
  expect_job_done(next_reply(raw), 5);
  EXPECT_EQ(server_->stats().submits, 1u);
  EXPECT_EQ(server_->stats().tune_submits, 0u);
  EXPECT_EQ(tune_service_->metrics().sessions_started, 0u);
}

TEST_F(NetTuneTest, JobReusingAnInFlightTuneTagIsRefused) {
  RawConnection raw(start());
  ASSERT_TRUE(raw.handshake());
  gate_open_ = false;
  ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitTune, gated_tune(7)));
  ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitJob, gated_job(7)));
  expect_error(next_reply(raw), 7, kErrBadRequest,
               "tag already has an in-flight request");
  gate_open_ = true;
  expect_tune_done(next_reply(raw), 7);
  EXPECT_EQ(server_->stats().submits, 0u);
  EXPECT_EQ(server_->stats().tune_submits, 1u);
}

TEST_F(NetTuneTest, CancelOfTheOtherKindFindsNoRequest) {
  RawConnection raw(start());
  ASSERT_TRUE(raw.handshake());
  gate_open_ = false;
  ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitJob, gated_job(3)));
  ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitTune, gated_tune(4)));
  ASSERT_TRUE(raw.send_frame(io::kRecordNetCancelTune,
                             encode_cancel_tune({.tag = 3})));
  expect_error(next_reply(raw), 3, kErrUnknownTag,
               "no in-flight tune session with this tag");
  ASSERT_TRUE(raw.send_frame(io::kRecordNetCancelJob,
                             encode_cancel({.tag = 4})));
  expect_error(next_reply(raw), 4, kErrUnknownTag,
               "no in-flight job with this tag");
  EXPECT_EQ(server_->stats().cancels, 0u);
  EXPECT_EQ(server_->stats().tune_cancels, 0u);

  // Neither request was touched: both finish once the gate opens.
  gate_open_ = true;
  Frame job = next_reply(raw);
  Frame tune = next_reply(raw);
  if (job.type == io::kRecordNetTuneResult) std::swap(job, tune);
  expect_job_done(job, 3);
  expect_tune_done(tune, 4);
}

TEST_F(NetTuneTest, HangupCancelsTheInFlightJobAndTheInFlightSession) {
  {
    RawConnection raw(start());
    ASSERT_TRUE(raw.handshake());
    gate_open_ = false;
    ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitJob, gated_job(1)));
    ASSERT_TRUE(raw.send_frame(io::kRecordNetSubmitTune, gated_tune(2)));
    // Frames are handled in order: the Metrics reply means both are in.
    ASSERT_TRUE(raw.send_frame(io::kRecordNetGetMetrics, {}));
    const Frame reply = next_reply(raw);
    ASSERT_EQ(reply.type, io::kRecordNetMetrics);
    EXPECT_EQ(decode_metrics(reply.payload).connection_submitted, 2u);
  }  // hang-up with both gated

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((server_->stats().disconnect_cancelled_jobs == 0 ||
          server_->stats().disconnect_cancelled_tunes == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->stats().disconnect_cancelled_jobs, 1u);
  EXPECT_EQ(server_->stats().disconnect_cancelled_tunes, 1u);
}

}  // namespace
}  // namespace qross::net
