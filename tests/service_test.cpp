// Tests for the solve service subsystem: cooperative stop in every solver
// kernel, job fingerprints, the LRU result cache, and the SolveService's
// queueing / cancellation / deadline / coalescing semantics (the ISSUE 2
// acceptance criteria a-d).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "counting_solver.hpp"
#include "golden_fixtures.hpp"
#include "obs/registry.hpp"
#include "problems/mvc/mvc.hpp"
#include "prom_sample.hpp"
#include "qross/qross.hpp"

namespace qross::service {
namespace {

using namespace std::chrono_literals;
using qross::testing::CountingSolver;

qubo::QuboModel test_model(std::uint64_t seed, std::size_t vertices = 48) {
  return mvc::generate_random_mvc(vertices, 0.10, seed).to_qubo(2.0);
}

solvers::SolveOptions small_options() {
  solvers::SolveOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 20;
  options.seed = 7;
  return options;
}

/// Blocks inside solve() until released — lets a test hold an execution in
/// the `running` phase deterministically.
class GateSolver final : public solvers::QuboSolver {
 public:
  struct Gate {
    std::mutex m;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> entered{0};

    void release() {
      {
        std::lock_guard lock(m);
        open = true;
      }
      cv.notify_all();
    }
    void await_entered(int count) {
      while (entered.load() < count) std::this_thread::sleep_for(1ms);
    }
  };

  explicit GateSolver(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gate"; }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override {
    gate_->entered.fetch_add(1);
    std::unique_lock lock(gate_->m);
    gate_->cv.wait(lock, [&] { return gate_->open; });
    qubo::SolveBatch batch;
    batch.results.resize(options.num_replicas);
    for (auto& r : batch.results) {
      r.assignment.assign(model.num_vars(), 0);
      r.qubo_energy = model.offset();
    }
    return batch;
  }

 private:
  std::shared_ptr<GateSolver::Gate> gate_;
};

/// Records the order executions start in (tagged by model offset).
class RecordingSolver final : public solvers::QuboSolver {
 public:
  struct Log {
    std::mutex m;
    std::vector<double> order;
  };
  explicit RecordingSolver(std::shared_ptr<Log> log) : log_(std::move(log)) {}
  std::string name() const override { return "recorder"; }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override {
    {
      std::lock_guard lock(log_->m);
      log_->order.push_back(model.offset());
    }
    qubo::SolveBatch batch;
    batch.results.resize(options.num_replicas);
    for (auto& r : batch.results) r.assignment.assign(model.num_vars(), 0);
    return batch;
  }

 private:
  std::shared_ptr<Log> log_;
};

class ThrowingSolver final : public solvers::QuboSolver {
 public:
  std::string name() const override { return "thrower"; }
  qubo::SolveBatch solve(const qubo::QuboModel&,
                         const solvers::SolveOptions&) const override {
    throw std::runtime_error("deliberate test failure");
  }
};

// --- StopToken --------------------------------------------------------------

TEST(StopTokenTest, DefaultTokenIsInert) {
  solvers::StopToken token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  token.request_stop();  // no-op, must not crash
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopTokenTest, CopiesShareTheFlag) {
  const auto token = solvers::StopToken::create();
  const solvers::StopToken copy = token;
  EXPECT_TRUE(copy.stop_possible());
  EXPECT_FALSE(copy.stop_requested());
  token.request_stop();
  EXPECT_TRUE(copy.stop_requested());
}

// --- cooperative stop in every kernel ---------------------------------------

std::vector<solvers::SolverPtr> all_kernels() {
  return {std::make_shared<solvers::SimulatedAnnealer>(),
          std::make_shared<solvers::DigitalAnnealer>(),
          std::make_shared<solvers::TabuSearch>(),
          std::make_shared<solvers::ParallelTempering>(),
          std::make_shared<solvers::Qbsolv>(),
          std::make_shared<solvers::AnalogNoiseSolver>(
              std::make_shared<solvers::SimulatedAnnealer>())};
}

TEST(CooperativeStopTest, EveryKernelStopsWithinASweep) {
  const auto model = test_model(0x51);
  for (const auto& solver : all_kernels()) {
    SCOPED_TRACE(solver->name());
    solvers::SolveOptions options;
    options.num_replicas = 4;
    options.num_sweeps = 500;
    options.stop = solvers::StopToken::create();
    std::atomic<std::size_t> ticks{0};
    const solvers::StopToken stop = options.stop;
    options.on_sweep = [&ticks, stop] {
      if (ticks.fetch_add(1) == 0) stop.request_stop();
    };
    const qubo::SolveBatch batch = solver->solve(model, options);
    // Stopped at the first sweep tick: nowhere near the full budget runs.
    // Tabu ticks once per iteration (= sweeps * n budget), so the bound is
    // per-kernel loose but still orders of magnitude below "ran to the end".
    EXPECT_LT(ticks.load(), 4 * options.num_replicas)
        << "kernel ignored the stop token";
    // Partial batches still contain structurally valid assignments.
    ASSERT_FALSE(batch.empty());
    for (const auto& result : batch.results) {
      EXPECT_EQ(result.assignment.size(), model.num_vars());
    }
  }
}

TEST(CooperativeStopTest, UnstoppedRunsAreUnaffectedByInstrumentation) {
  const auto model = test_model(0x52);
  for (const auto& solver : all_kernels()) {
    SCOPED_TRACE(solver->name());
    const auto options = small_options();
    const qubo::SolveBatch plain = solver->solve(model, options);

    solvers::SolveOptions instrumented = options;
    instrumented.stop = solvers::StopToken::create();  // never signalled
    std::atomic<std::size_t> ticks{0};
    instrumented.on_sweep = [&ticks] { ticks.fetch_add(1); };
    const qubo::SolveBatch observed = solver->solve(model, instrumented);

    EXPECT_GT(ticks.load(), 0u);
    ASSERT_EQ(plain.size(), observed.size());
    for (std::size_t r = 0; r < plain.size(); ++r) {
      EXPECT_EQ(plain.results[r].assignment, observed.results[r].assignment);
      EXPECT_EQ(plain.results[r].qubo_energy, observed.results[r].qubo_energy);
    }
  }
}

// --- fingerprints -----------------------------------------------------------

TEST(FingerprintTest, CanonicalOverConstructionPath) {
  qubo::QuboModel a(4);
  a.add_term(0, 1, 1.5);
  a.add_term(2, 2, -0.5);

  qubo::QuboModel b(4);
  b.add_term(1, 0, 0.75);  // accumulates into (0, 1)
  b.add_term(0, 1, 0.75);
  b.add_term(2, 2, -0.5);
  b.add_term(3, 3, 2.0);
  b.add_term(3, 3, -2.0);  // cancels to a structural zero

  EXPECT_EQ(fingerprint_model(a), fingerprint_model(b));

  qubo::QuboModel c(4);
  c.add_term(0, 1, 1.5);
  c.add_term(2, 2, -0.5 + 1e-12);
  EXPECT_NE(fingerprint_model(a), fingerprint_model(c));
}

TEST(FingerprintTest, OptionsAndSolverIdentity) {
  const auto model = test_model(0x53);
  const auto sa = std::make_shared<solvers::SimulatedAnnealer>();
  const auto options = small_options();

  // num_threads is excluded: the fan-out is bit-identical.
  solvers::SolveOptions threaded = options;
  threaded.num_threads = 8;
  EXPECT_EQ(fingerprint_job(*sa, model, options),
            fingerprint_job(*sa, model, threaded));

  // The stop token / progress callback never change a completed result.
  solvers::SolveOptions instrumented = options;
  instrumented.stop = solvers::StopToken::create();
  instrumented.on_sweep = [] {};
  EXPECT_EQ(fingerprint_job(*sa, model, options),
            fingerprint_job(*sa, model, instrumented));

  solvers::SolveOptions reseeded = options;
  reseeded.seed += 1;
  EXPECT_NE(fingerprint_job(*sa, model, options),
            fingerprint_job(*sa, model, reseeded));

  // Same kernel, different parameters: config_digest keeps them apart.
  solvers::SaParams hot;
  hot.initial_acceptance = 0.95;
  const auto sa_hot = std::make_shared<solvers::SimulatedAnnealer>(hot);
  EXPECT_NE(fingerprint_job(*sa, model, options),
            fingerprint_job(*sa_hot, model, options));

  const auto da = std::make_shared<solvers::DigitalAnnealer>();
  EXPECT_NE(fingerprint_job(*sa, model, options),
            fingerprint_job(*da, model, options));
}

// Cache keys pinned to golden_fingerprints.txt, written by the word-at-a-time
// stream.  Every persisted CacheStore journal is keyed by these digests, and
// warm-start tests cannot notice a changed key because both of their
// processes run the same build.
TEST(FingerprintTest, MatchesGoldenFingerprints) {
  const auto golden = testing::golden::read_hex_table(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_fingerprints.txt");
  const auto hex = [](const Fingerprint& fp) {
    char out[33];
    std::snprintf(out, sizeof(out), "%016llx%016llx",
                  static_cast<unsigned long long>(fp.hi),
                  static_cast<unsigned long long>(fp.lo));
    return std::string(out);
  };
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 40;
  options.seed = 0x5EED;
  const solvers::DigitalAnnealer da;
  const solvers::SimulatedAnnealer sa;
  for (const auto& [name, model] : testing::golden::fingerprint_models()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(golden.contains(name + ".model"));
    EXPECT_EQ(hex(fingerprint_model(model)), golden.at(name + ".model"));
    EXPECT_EQ(hex(fingerprint_job(da, model, options)),
              golden.at(name + ".da"));
    EXPECT_EQ(hex(fingerprint_job(sa, model, options)),
              golden.at(name + ".sa"));
  }
}

// Properties of the word stream: nearby models must not collide.  A model is
// rebuilt from an explicit term list, so every variant below is exactly the
// canonical model it describes.
struct Coef {
  std::size_t i;
  std::size_t j;
  double w;
};

struct TermList {
  std::size_t num_vars = 0;
  double offset = 0.0;
  std::vector<Coef> terms;

  explicit TermList(const qubo::QuboModel& model)
      : num_vars(model.num_vars()), offset(model.offset()) {
    model.for_each_term([&](std::size_t i, std::size_t j, double w) {
      terms.push_back({i, j, w});
    });
  }

  qubo::QuboModel build() const {
    qubo::QuboModel model(num_vars);
    model.set_offset(offset);
    for (const Coef& t : terms) model.add_term(t.i, t.j, t.w);
    return model;
  }

  // Bit-exact identity of the canonical model (what the key must capture).
  std::vector<std::uint64_t> canonical() const {
    std::vector<std::uint64_t> out{num_vars,
                                   std::bit_cast<std::uint64_t>(offset)};
    for (const Coef& t : terms) {
      out.insert(out.end(), {t.i, t.j, std::bit_cast<std::uint64_t>(t.w)});
    }
    return out;
  }
};

/// Collects fingerprints and fails when two different models share one.
class CollisionCheck {
 public:
  /// True when `variant` got a fingerprint no other model has.
  bool add(const TermList& variant) {
    const Fingerprint fp = fingerprint_model(variant.build());
    const auto [it, fresh] =
        seen_.emplace(std::pair(fp.hi, fp.lo), variant.canonical());
    EXPECT_TRUE(fresh || it->second == variant.canonical())
        << "two different models share a fingerprint";
    return fresh;
  }

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::uint64_t>>
      seen_;
};

qubo::QuboModel tsp_model() {
  return tsp::build_tsp_problem(tsp::generate_uniform(6, 0xF1)).to_qubo(10.0);
}

TEST(FingerprintTest, SeparatesSignFlipsSwapsAndMovedWeights) {
  const TermList base(tsp_model());
  ASSERT_GT(base.terms.size(), 100u);
  CollisionCheck check;
  ASSERT_TRUE(check.add(base));
  std::size_t moved = 0;
  for (std::size_t k = 0; k + 1 < base.terms.size(); ++k) {
    // Both sign bits flipped: an xor-only stream would cancel them.
    TermList flipped = base;
    flipped.terms[k].w = -flipped.terms[k].w;
    flipped.terms[k + 1].w = -flipped.terms[k + 1].w;
    EXPECT_TRUE(check.add(flipped)) << "sign flips at term " << k;

    // Two terms' weights swapped (a no-op when they are equal).
    if (base.terms[k].w != base.terms[k + 1].w) {
      TermList swapped = base;
      std::swap(swapped.terms[k].w, swapped.terms[k + 1].w);
      check.add(swapped);  // may equal a flip variant; the check knows
    }

    // One weight moved to the next cell of its row that holds none.
    const Coef& t = base.terms[k];
    const std::size_t next_col = base.terms[k + 1].i == t.i
                                     ? base.terms[k + 1].j
                                     : base.num_vars;
    if (t.j + 1 < next_col) {
      TermList moved_to = base;
      moved_to.terms[k].j = t.j + 1;
      EXPECT_TRUE(check.add(moved_to)) << "weight moved from term " << k;
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(FingerprintTest, SeparatesWeightsThatDifferInTheSignOrExponentBits) {
  const TermList base(testing::golden::model());
  CollisionCheck check;
  ASSERT_TRUE(check.add(base));
  for (std::size_t k = 0; k < base.terms.size(); ++k) {
    for (int bit = 52; bit < 64; ++bit) {  // the exponent, then the sign
      TermList variant = base;
      variant.terms[k].w = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(variant.terms[k].w) ^
          (std::uint64_t{1} << bit));
      EXPECT_TRUE(check.add(variant)) << "term " << k << " bit " << bit;
    }
  }
}

TEST(FingerprintTest, SeparatesNumVarsAndTheSignOfAZeroOffset) {
  const TermList base(testing::golden::model());
  TermList wider = base;
  ++wider.num_vars;
  EXPECT_NE(fingerprint_model(base.build()), fingerprint_model(wider.build()));

  TermList positive = base;
  positive.offset = 0.0;
  TermList negative = base;
  negative.offset = -0.0;
  EXPECT_NE(fingerprint_model(positive.build()),
            fingerprint_model(negative.build()));
  const solvers::SimulatedAnnealer sa;
  EXPECT_NE(fingerprint_job(sa, positive.build(), small_options()),
            fingerprint_job(sa, negative.build(), small_options()));
}

// --- result cache -----------------------------------------------------------

std::shared_ptr<const qubo::SolveBatch> dummy_batch(double energy) {
  qubo::SolveBatch batch;
  batch.results.resize(1);
  batch.results[0].qubo_energy = energy;
  return std::make_shared<const qubo::SolveBatch>(std::move(batch));
}

TEST(ResultCacheTest, LruEvictionAndCounters) {
  ResultCache cache(2);
  const Fingerprint k1{1, 1}, k2{2, 2}, k3{3, 3};
  EXPECT_EQ(cache.get(k1), nullptr);

  cache.put(k1, dummy_batch(1.0));
  cache.put(k2, dummy_batch(2.0));
  ASSERT_NE(cache.get(k1), nullptr);  // k1 now most-recently-used
  cache.put(k3, dummy_batch(3.0));    // evicts k2, the LRU entry
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.get(k2), nullptr);
  ASSERT_NE(cache.get(k1), nullptr);
  ASSERT_NE(cache.get(k3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put({1, 1}, dummy_batch(1.0));
  EXPECT_EQ(cache.get({1, 1}), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// --- SolveService acceptance criteria ---------------------------------------

// (a) A submitted long-running job cancels within one sweep.
TEST(SolveServiceTest, CancelStopsARunningJobWithinASweep) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  solvers::SolveOptions huge = small_options();
  huge.num_sweeps = 2'000'000;  // would run for minutes if not cancelled
  huge.num_replicas = 2;
  auto handle = svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                           test_model(0x54, 96), huge);
  while (handle.status() == JobStatus::queued) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(handle.status(), JobStatus::running);
  handle.cancel();
  const JobResult result = handle.wait();  // returns within ~one sweep
  EXPECT_EQ(result.status, JobStatus::cancelled);
  ASSERT_NE(result.batch, nullptr);  // partial best-so-far batch attached
  EXPECT_EQ(result.batch->size(), huge.num_replicas);

  const ServiceMetrics metrics = svc.metrics();
  EXPECT_EQ(metrics.cancelled, 1u);
  EXPECT_EQ(metrics.running, 0u);
  // Every snapshot reports the dispatched evaluation kernel.
  EXPECT_TRUE(metrics.simd_kernel == "avx2" || metrics.simd_kernel == "scalar")
      << metrics.simd_kernel;
}

// (b) A deadline-expired queued job never starts.
TEST(SolveServiceTest, ExpiredQueuedJobNeverInvokesTheSolver) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0x55), small_options());
  gate->await_entered(1);  // the only worker is now held inside the gate

  std::atomic<int> invocations{0};
  auto counted = std::make_shared<CountingSolver>(
      std::make_shared<solvers::SimulatedAnnealer>(), invocations);
  SubmitOptions submit;
  submit.deadline = std::chrono::steady_clock::now() - 1ms;  // already past
  auto doomed = svc.submit(counted, test_model(0x56), small_options(), submit);
  EXPECT_EQ(doomed.status(), JobStatus::queued);

  gate->release();
  const JobResult result = doomed.wait();
  EXPECT_EQ(result.status, JobStatus::expired);
  EXPECT_EQ(result.batch, nullptr);
  EXPECT_EQ(invocations.load(), 0) << "expired job must never start";
  EXPECT_EQ(blocker.wait().status, JobStatus::done);
}

// (c) A cache hit returns a bit-identical SolveResult without invoking the
// solver.
TEST(SolveServiceTest, CacheHitIsBitIdenticalWithoutSolverInvocation) {
  SolveService svc;
  std::atomic<int> invocations{0};
  auto counted = std::make_shared<CountingSolver>(
      std::make_shared<solvers::DigitalAnnealer>(), invocations);
  const auto model = test_model(0x57);
  const auto options = small_options();

  const JobResult first = svc.submit(counted, model, options).wait();
  ASSERT_EQ(first.status, JobStatus::done);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(invocations.load(), 1);

  const JobResult second = svc.submit(counted, model, options).wait();
  ASSERT_EQ(second.status, JobStatus::done);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(invocations.load(), 1) << "cache hit must not invoke the solver";

  ASSERT_EQ(first.batch->size(), second.batch->size());
  for (std::size_t r = 0; r < first.batch->size(); ++r) {
    EXPECT_EQ(first.batch->results[r].assignment,
              second.batch->results[r].assignment);
    EXPECT_EQ(first.batch->results[r].qubo_energy,
              second.batch->results[r].qubo_energy);
  }
}

// (d) N concurrent submissions of the same job: one solver execution plus
// N-1 coalesced results.
TEST(SolveServiceTest, ConcurrentIdenticalSubmissionsCoalesce) {
  ServiceConfig config;
  config.num_workers = 2;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  const auto solver = std::make_shared<GateSolver>(gate);
  const auto model = test_model(0x58);
  const auto options = small_options();

  constexpr std::size_t kJobs = 8;
  std::vector<JobHandle> handles;
  handles.push_back(svc.submit(solver, model, options));
  gate->await_entered(1);  // primary is running; the rest must coalesce
  for (std::size_t k = 1; k < kJobs; ++k) {
    handles.push_back(svc.submit(solver, model, options));
  }
  gate->release();

  std::size_t shared_results = 0;
  std::shared_ptr<const qubo::SolveBatch> batch;
  for (auto& handle : handles) {
    const JobResult result = handle.wait();
    ASSERT_EQ(result.status, JobStatus::done);
    if (result.coalesced || result.cache_hit) ++shared_results;
    if (batch == nullptr) {
      batch = result.batch;
    } else {
      EXPECT_EQ(batch, result.batch) << "coalesced jobs must share the batch";
    }
  }
  EXPECT_EQ(gate->entered.load(), 1) << "exactly one solver execution";
  EXPECT_EQ(shared_results, kJobs - 1);
  EXPECT_EQ(svc.metrics().solver_invocations, 1u);
}

// --- queue policy, deadline mid-run, failures, shutdown ---------------------

TEST(SolveServiceTest, HigherPriorityRunsFirst) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0x59), small_options());
  gate->await_entered(1);

  const auto log = std::make_shared<RecordingSolver::Log>();
  const auto recorder = std::make_shared<RecordingSolver>(log);
  std::vector<JobHandle> handles;
  for (int k = 0; k < 3; ++k) {
    qubo::QuboModel model = test_model(0x60 + k, 16);
    model.set_offset(static_cast<double>(k));  // tag for the recorder
    SubmitOptions submit;
    submit.priority = k == 2 ? 10 : 0;  // the last submission jumps the queue
    handles.push_back(svc.submit(recorder, model, small_options(), submit));
  }
  gate->release();
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait().status, JobStatus::done);
  }
  blocker.wait();
  ASSERT_EQ(log->order.size(), 3u);
  EXPECT_DOUBLE_EQ(log->order[0], 2.0) << "priority 10 must run first";
}

TEST(SolveServiceTest, DeadlineMidRunExpiresWithPartialBatch) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  // Starts immediately (idle worker), then trips the per-sweep deadline
  // watchdog long before its 2M-sweep budget would complete.
  solvers::SolveOptions huge = small_options();
  huge.num_sweeps = 2'000'000;
  SubmitOptions submit;
  submit.deadline = std::chrono::steady_clock::now() + 150ms;
  auto slow = svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                         test_model(0x5b), huge, submit);
  const JobResult slow_result = slow.wait();
  EXPECT_EQ(slow_result.status, JobStatus::expired);
  ASSERT_NE(slow_result.batch, nullptr);  // partial best-so-far
  EXPECT_EQ(svc.metrics().expired, 1u);
}

// A deadline is per job: when jobs with and without deadlines share an
// execution, the due job is detached as expired while the execution keeps
// running for the rest.
TEST(SolveServiceTest, PerJobDeadlineDetachesOnlyTheDueJob) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0x63), small_options());
  gate->await_entered(1);

  const auto solver = std::make_shared<solvers::SimulatedAnnealer>();
  const auto model = test_model(0x64, 96);
  solvers::SolveOptions huge = small_options();
  huge.num_sweeps = 2'000'000;
  auto keeper = svc.submit(solver, model, huge);  // no deadline
  SubmitOptions submit;
  submit.deadline = std::chrono::steady_clock::now() + 150ms;
  auto due = svc.submit(solver, model, huge, submit);  // coalesces

  gate->release();
  blocker.wait();
  const JobResult due_result = due.wait();
  EXPECT_EQ(due_result.status, JobStatus::expired);
  EXPECT_EQ(due_result.batch, nullptr);  // detached; no shared batch yet
  EXPECT_FALSE(keeper.finished())
      << "the execution must keep running for the deadline-free job";
  keeper.cancel();
  EXPECT_EQ(keeper.wait().status, JobStatus::cancelled);
}

// Shutdown must stop-signal running bypass_cache executions too (they are
// tracked outside the coalescing index).
TEST(SolveServiceTest, ShutdownStopsRunningBypassCacheJobs) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  solvers::SolveOptions huge = small_options();
  huge.num_sweeps = 2'000'000;
  SubmitOptions submit;
  submit.bypass_cache = true;
  auto handle = svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                           test_model(0x65, 96), huge, submit);
  while (handle.status() == JobStatus::queued) {
    std::this_thread::sleep_for(1ms);
  }
  svc.shutdown();
  EXPECT_EQ(handle.wait().status, JobStatus::cancelled);  // within one sweep
}

TEST(SolveServiceTest, SolverExceptionFailsTheJobAndServiceSurvives) {
  SolveService svc;
  const JobResult failed =
      svc.submit(std::make_shared<ThrowingSolver>(), test_model(0x5c),
                 small_options())
          .wait();
  EXPECT_EQ(failed.status, JobStatus::failed);
  EXPECT_EQ(failed.batch, nullptr);
  EXPECT_NE(failed.error.find("deliberate"), std::string::npos);

  const JobResult ok =
      svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                 test_model(0x5d), small_options())
          .wait();
  EXPECT_EQ(ok.status, JobStatus::done);
  EXPECT_EQ(svc.metrics().failed, 1u);
}

TEST(SolveServiceTest, ShutdownCancelsQueuedAndRejectsNewJobs) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto running = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0x5e), small_options());
  gate->await_entered(1);
  auto queued = svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                           test_model(0x5f), small_options());

  svc.shutdown();
  EXPECT_EQ(queued.wait().status, JobStatus::cancelled);
  EXPECT_THROW(svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                          test_model(0x5f), small_options()),
               std::invalid_argument);
  gate->release();
  // The in-flight job was stop-signalled by shutdown; the gate solver
  // ignores the token, so it completes its batch — reported as cancelled.
  EXPECT_EQ(running.wait().status, JobStatus::cancelled);
}

TEST(SolveServiceTest, CancellingOneCoalescedFollowerKeepsTheExecution) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  const auto solver = std::make_shared<GateSolver>(gate);
  const auto model = test_model(0x61);
  auto primary = svc.submit(solver, model, small_options());
  gate->await_entered(1);
  auto follower = svc.submit(solver, model, small_options());
  follower.cancel();  // detaches only the follower
  EXPECT_EQ(follower.wait().status, JobStatus::cancelled);
  gate->release();
  EXPECT_EQ(primary.wait().status, JobStatus::done);
  EXPECT_EQ(gate->entered.load(), 1);
}

// A live StopToken in the submitted options is that job's cancellation: it
// must detach the submitter without killing an execution other jobs still
// want (the coalescing invariant), and a solo submitter's token stops the
// kernel within a sweep.
TEST(SolveServiceTest, SubmitterStopTokenCancelsOnlyItsOwnJob) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);
  const auto solver = std::make_shared<solvers::SimulatedAnnealer>();
  const auto model = test_model(0x62, 96);

  solvers::SolveOptions options = small_options();
  options.num_sweeps = 2'000'000;
  options.stop = solvers::StopToken::create();
  auto primary = svc.submit(solver, model, options);
  while (primary.status() == JobStatus::queued) {
    std::this_thread::sleep_for(1ms);
  }
  solvers::SolveOptions follower_options = options;
  follower_options.stop = {};  // same fingerprint (stop is excluded)
  auto follower = svc.submit(solver, model, follower_options);

  options.stop.request_stop();
  EXPECT_EQ(primary.wait().status, JobStatus::cancelled);
  EXPECT_FALSE(follower.finished())
      << "the shared execution must survive the primary's token";
  follower.cancel();  // now the last interested job: the kernel stops
  const JobResult result = follower.wait();
  EXPECT_EQ(result.status, JobStatus::cancelled);
  ASSERT_NE(result.batch, nullptr);
  EXPECT_EQ(svc.metrics().solver_invocations, 1u);
  EXPECT_EQ(svc.metrics().coalesced, 1u);
}

// The same holds for a follower that coalesced while the execution was
// still queued: its own token detaches it without disturbing the primary.
TEST(SolveServiceTest, QueuedCoalescedFollowerTokenCancelsOnlyItself) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0x66), small_options());
  gate->await_entered(1);

  const auto solver = std::make_shared<solvers::SimulatedAnnealer>();
  const auto model = test_model(0x67, 96);
  solvers::SolveOptions huge = small_options();
  huge.num_sweeps = 2'000'000;
  auto primary = svc.submit(solver, model, huge);
  solvers::SolveOptions follower_options = huge;
  follower_options.stop = solvers::StopToken::create();
  auto follower = svc.submit(solver, model, follower_options);

  gate->release();
  blocker.wait();
  follower_options.stop.request_stop();
  EXPECT_EQ(follower.wait().status, JobStatus::cancelled);
  EXPECT_FALSE(primary.finished())
      << "the shared execution must survive the follower's token";
  primary.cancel();
  EXPECT_EQ(primary.wait().status, JobStatus::cancelled);
  EXPECT_EQ(svc.metrics().solver_invocations, 2u);  // blocker + shared exec
}

TEST(SolveServiceTest, MetricsSnapshotIsConsistent) {
  SolveService svc;
  const auto solver = std::make_shared<solvers::SimulatedAnnealer>();
  for (std::uint64_t k = 0; k < 4; ++k) {
    svc.submit(solver, test_model(0x70 + k, 24), small_options()).wait();
  }
  // One repeat for a cache hit.
  svc.submit(solver, test_model(0x70, 24), small_options()).wait();

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.submitted, 5u);
  EXPECT_EQ(m.completed, 5u);
  EXPECT_EQ(m.solver_invocations, 4u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.running, 0u);
  EXPECT_GT(m.jobs_per_second, 0.0);
  EXPECT_EQ(m.queue_wait.count, 5u);
  EXPECT_EQ(m.run.count, 4u);
  EXPECT_GE(m.run.p99_ms, m.run.p50_ms);
}

// --- fair share + admission control ------------------------------------------

std::vector<double> offsets_of(const std::vector<double>& order,
                               std::size_t count) {
  return {order.begin(),
          order.begin() + static_cast<std::ptrdiff_t>(
                              std::min(count, order.size()))};
}

// The ISSUE 5 acceptance criterion: with a greedy client keeping the queue
// full, a polite client's job at equal priority is dispatched within one
// round-robin cycle — not after the greedy backlog.
TEST(FairShareTest, PoliteClientJobDispatchesWithinOneRoundRobinCycle) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0xC0), small_options());
  gate->await_entered(1);  // the only worker is held; everything below queues

  const auto log = std::make_shared<RecordingSolver::Log>();
  const auto recorder = std::make_shared<RecordingSolver>(log);
  std::vector<JobHandle> handles;
  SubmitOptions greedy;
  greedy.client_id = "greedy";
  for (int k = 0; k < 8; ++k) {
    qubo::QuboModel model = test_model(0xC1 + k, 16);
    model.set_offset(1.0 + k);  // greedy jobs tagged 1..8 for the recorder
    handles.push_back(svc.submit(recorder, model, small_options(), greedy));
  }
  SubmitOptions polite;
  polite.client_id = "polite";
  qubo::QuboModel late = test_model(0xD0, 16);
  late.set_offset(100.0);  // the polite job, submitted LAST
  handles.push_back(svc.submit(recorder, late, small_options(), polite));

  gate->release();
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait().status, JobStatus::done);
  }
  blocker.wait();
  ASSERT_EQ(log->order.size(), 9u);
  const auto head = offsets_of(log->order, 2);
  EXPECT_TRUE(head[0] == 100.0 || head[1] == 100.0)
      << "polite job was dispatched behind the greedy flood (first two: "
      << head[0] << ", " << head[1] << ")";

  const ServiceMetrics m = svc.metrics();
  ASSERT_EQ(m.clients.size(), 3u);  // (anonymous blocker), greedy, polite
  EXPECT_EQ(m.clients[1].client_id, "greedy");
  EXPECT_EQ(m.clients[1].submitted, 8u);
  EXPECT_EQ(m.clients[1].dispatched, 8u);
  EXPECT_EQ(m.clients[2].client_id, "polite");
  EXPECT_EQ(m.clients[2].completed, 1u);
}

TEST(FairShareTest, ClientWeightsScaleDispatchShare) {
  ServiceConfig config;
  config.num_workers = 1;
  config.client_weights["heavy"] = 2.0;
  SolveService svc(config);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0xC9), small_options());
  gate->await_entered(1);

  const auto log = std::make_shared<RecordingSolver::Log>();
  const auto recorder = std::make_shared<RecordingSolver>(log);
  std::vector<JobHandle> handles;
  for (int k = 0; k < 6; ++k) {  // heavy tagged 1..6, light tagged 101..106
    SubmitOptions submit;
    submit.client_id = "heavy";
    qubo::QuboModel model = test_model(0xE0 + k, 16);
    model.set_offset(1.0 + k);
    handles.push_back(svc.submit(recorder, model, small_options(), submit));
  }
  for (int k = 0; k < 6; ++k) {
    SubmitOptions submit;
    submit.client_id = "light";
    qubo::QuboModel model = test_model(0xF0 + k, 16);
    model.set_offset(101.0 + k);
    handles.push_back(svc.submit(recorder, model, small_options(), submit));
  }
  gate->release();
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait().status, JobStatus::done);
  }
  blocker.wait();
  ASSERT_EQ(log->order.size(), 12u);
  // Deficit round robin with weight 2 vs 1: each cycle serves two heavy
  // jobs then one light one — H H L H H L over the first six dispatches.
  const auto head = offsets_of(log->order, 6);
  int heavy_head = 0;
  for (const double tag : head) heavy_head += tag < 100.0 ? 1 : 0;
  EXPECT_EQ(heavy_head, 4) << "weight-2 client should get 2 of every 3 slots";
  EXPECT_GT(head[2], 100.0) << "light client's first job rides cycle one";
}

TEST(AdmissionControlTest, InflightQuotaRejectsAtSubmitAndFreesOnCompletion) {
  ServiceConfig config;
  config.num_workers = 1;
  config.max_inflight_per_client = 2;
  SolveService svc(config);
  const auto solver = std::make_shared<solvers::SimulatedAnnealer>();
  SubmitOptions limited;
  limited.client_id = "limited";

  // Seed the cache while the worker is free (quota 1/2 during the solve).
  const auto cached_model = test_model(0xDD);
  ASSERT_EQ(
      svc.submit(solver, cached_model, small_options(), limited).wait().status,
      JobStatus::done);

  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0xD1), small_options());
  gate->await_entered(1);  // "(anonymous)" holds the worker
  auto first = svc.submit(solver, test_model(0xD2), small_options(), limited);
  auto second = svc.submit(solver, test_model(0xD3), small_options(), limited);
  try {
    svc.submit(solver, test_model(0xD4), small_options(), limited);
    FAIL() << "third inflight job must be refused";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.kind(), AdmissionErrorKind::inflight_quota);
    EXPECT_FALSE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("quota"), std::string::npos);
  }
  // A cache hit completes instantly without occupying anything: admitted
  // even at the full inflight quota.
  const JobResult hit =
      svc.submit(solver, cached_model, small_options(), limited).wait();
  EXPECT_EQ(hit.status, JobStatus::done);
  EXPECT_TRUE(hit.cache_hit);
  // Another client is unaffected by the limited client's quota.
  SubmitOptions other;
  other.client_id = "other";
  auto ok = svc.submit(solver, test_model(0xD5), small_options(), other);

  ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.admission_rejected, 1u);
  ASSERT_EQ(m.clients.size(), 3u);
  EXPECT_EQ(m.clients[1].client_id, "limited");
  EXPECT_EQ(m.clients[1].rejected_inflight, 1u);
  EXPECT_EQ(m.clients[1].inflight, 2u);
  EXPECT_EQ(m.clients[1].queued, 2u);
  EXPECT_EQ(m.clients[1].submitted, 4u)
      << "seed + 2 queued + the cache hit; rejections are not submissions";

  gate->release();
  EXPECT_EQ(blocker.wait().status, JobStatus::done);
  EXPECT_EQ(first.wait().status, JobStatus::done);
  EXPECT_EQ(second.wait().status, JobStatus::done);
  EXPECT_EQ(ok.wait().status, JobStatus::done);
  // Quota capacity is returned as jobs finish.
  EXPECT_EQ(
      svc.submit(solver, test_model(0xD6), small_options(), limited).wait()
          .status,
      JobStatus::done);
}

TEST(AdmissionControlTest, QueuedQuotaExemptsCacheHitsAndRunningJoins) {
  ServiceConfig config;
  config.num_workers = 1;
  config.max_queued_per_client = 1;
  SolveService svc(config);
  const auto solver = std::make_shared<solvers::SimulatedAnnealer>();
  SubmitOptions quota;
  quota.client_id = "q";

  // Seed the cache while the worker is free.
  const auto cached_model = test_model(0xD7);
  ASSERT_EQ(svc.submit(solver, cached_model, small_options(), quota)
                .wait()
                .status,
            JobStatus::done);

  const auto gate = std::make_shared<GateSolver::Gate>();
  const auto gate_solver = std::make_shared<GateSolver>(gate);
  const auto gate_model = test_model(0xD8);
  auto blocker = svc.submit(gate_solver, gate_model, small_options());
  gate->await_entered(1);

  auto queued = svc.submit(solver, test_model(0xD9), small_options(), quota);
  try {
    svc.submit(solver, test_model(0xDA), small_options(), quota);
    FAIL() << "second queued job must be refused";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.kind(), AdmissionErrorKind::queued_quota);
  }
  // A cache hit occupies no queue slot: admitted despite the full quota.
  const JobResult hit =
      svc.submit(solver, cached_model, small_options(), quota).wait();
  EXPECT_EQ(hit.status, JobStatus::done);
  EXPECT_TRUE(hit.cache_hit);
  // Joining the RUNNING execution occupies no queue slot either.
  auto join = svc.submit(gate_solver, gate_model, small_options(), quota);
  EXPECT_EQ(join.status(), JobStatus::running);

  gate->release();
  EXPECT_EQ(blocker.wait().status, JobStatus::done);
  EXPECT_EQ(join.wait().status, JobStatus::done);
  EXPECT_EQ(queued.wait().status, JobStatus::done);
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.admission_rejected, 1u);
}

// A submission refused by a quota never reached the cache as far as the
// metrics are concerned: ServiceMetrics and the Prometheus scrape read the
// same counter, so they agree that only the admitted job missed.
TEST(AdmissionControlTest, RefusedSubmitIsNotCountedAsACacheMiss) {
  ServiceConfig config;
  config.num_workers = 1;
  config.max_inflight_per_client = 1;
  SolveService svc(config);
  const auto gate = std::make_shared<GateSolver::Gate>();
  auto blocker = svc.submit(std::make_shared<GateSolver>(gate),
                            test_model(0xE1), small_options());
  gate->await_entered(1);
  EXPECT_THROW(svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                          test_model(0xE2), small_options()),
               AdmissionError);

  const ServiceMetrics m = svc.metrics();
  const auto scraped = qross::testing::prom_sample(
      svc.registry().render_prometheus(), "qross_cache_misses_total");
  ASSERT_TRUE(scraped.has_value());
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(static_cast<double>(m.cache_misses), *scraped);
  EXPECT_EQ(m.admission_rejected, 1u);
  gate->release();
  EXPECT_EQ(blocker.wait().status, JobStatus::done);
}

TEST(AdmissionControlTest, ShutdownRefusalIsRetryableAdmissionError) {
  SolveService svc;
  svc.shutdown();
  try {
    svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
               test_model(0xDB), small_options());
    FAIL() << "submit after shutdown must throw";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.kind(), AdmissionErrorKind::shutting_down);
    EXPECT_TRUE(e.retryable()) << "a restarted service may accept the job";
  }
}

// A warm daemon serves endless one-shot anonymous clients (conn-N ids);
// their bookkeeping rows must be retired once idle, not kept forever.
TEST(AdmissionControlTest, IdleClientRowsAreBoundedByMaxClientRows) {
  ServiceConfig config;
  config.max_client_rows = 4;
  SolveService svc(config);
  const auto solver = std::make_shared<solvers::DigitalAnnealer>();
  for (int k = 0; k < 10; ++k) {
    SubmitOptions submit;
    submit.client_id = "one-shot-" + std::to_string(k);
    EXPECT_EQ(svc.submit(solver, test_model(0xE00 + k, 24), small_options(),
                         submit)
                  .wait()
                  .status,
              JobStatus::done);
  }
  const ServiceMetrics m = svc.metrics();
  EXPECT_LE(m.clients.size(), 4u);
  EXPECT_EQ(m.submitted, 10u) << "retirement must not touch global counters";
  EXPECT_EQ(m.completed, 10u);
}

TEST(AdmissionControlTest, ZeroReplicasIsRefusedAsInvalid) {
  SolveService svc;
  solvers::SolveOptions options = small_options();
  options.num_replicas = 0;
  EXPECT_THROW(svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                          test_model(0xDC), options),
               std::invalid_argument);
}

// --- cache persistence (ServiceConfig::cache_path) --------------------------

std::string scratch_cache_path(const char* name) {
  const auto path = std::filesystem::path(::testing::TempDir()) /
                    (std::string("qross_service_") + name + ".qsnap");
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".journal");
  return path;
}

TEST(CachePersistenceTest, CrossRunWarmStartIsBitIdenticalWithZeroInvocations) {
  const auto path = scratch_cache_path("warm");
  const auto model = test_model(0x90);
  const auto options = small_options();
  std::atomic<int> invocations{0};
  const auto counted = std::make_shared<CountingSolver>(
      std::make_shared<solvers::DigitalAnnealer>(), invocations);

  qubo::SolveBatch original;
  {
    ServiceConfig config;
    config.cache_path = path;
    SolveService first(config);
    const JobResult r = first.submit(counted, model, options).wait();
    ASSERT_EQ(r.status, JobStatus::done);
    original = *r.batch;
    // cache_stored lags completion by the append I/O; poll briefly.
    const auto give_up = std::chrono::steady_clock::now() + 5s;
    while (first.metrics().cache_stored < 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(first.metrics().cache_stored, 1u);
  }  // destructor compacts the journal into the snapshot

  // A second service on the same file stands in for a second process: the
  // fingerprint is recomputed from scratch, so a hit proves the on-disk key
  // and batch both survived the round trip bit-identically.
  ServiceConfig config;
  config.cache_path = path;
  SolveService second(config);
  EXPECT_EQ(second.metrics().cache_loaded, 1u);
  const JobResult r = second.submit(counted, model, options).wait();
  ASSERT_EQ(r.status, JobStatus::done);
  EXPECT_TRUE(r.cache_hit);
  EXPECT_EQ(invocations.load(), 1) << "warm start must not invoke the solver";
  ASSERT_EQ(r.batch->size(), original.size());
  for (std::size_t k = 0; k < original.size(); ++k) {
    EXPECT_EQ(r.batch->results[k].assignment, original.results[k].assignment);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.batch->results[k].qubo_energy),
              std::bit_cast<std::uint64_t>(original.results[k].qubo_energy));
  }
}

TEST(CachePersistenceTest, CorruptSnapshotDegradesToColdCache) {
  const auto path = scratch_cache_path("corrupt");
  {
    std::ofstream file(path, std::ios::binary);
    file.write("QROSSNAP", 8);                        // right magic...
    file.write("\x01\x00\x00\x00\x00\x00\x00\x00", 8);  // ...valid v1 header...
    file.write("garbage garbage garbage", 23);          // ...torn record soup
  }
  ServiceConfig config;
  config.cache_path = path;
  SolveService svc(config);
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.cache_loaded, 0u);
  EXPECT_GE(m.cache_load_skipped, 1u);
  // The service still works: solve, persist, and warm-start cleanly.
  const auto solver = std::make_shared<solvers::DigitalAnnealer>();
  EXPECT_EQ(svc.submit(solver, test_model(0x91), small_options()).wait().status,
            JobStatus::done);
}

TEST(CachePersistenceTest, FlushWhileServingLosesNothing) {
  const auto path = scratch_cache_path("flush");
  constexpr std::size_t kJobs = 32;
  {
    ServiceConfig config;
    config.num_workers = 2;
    config.cache_path = path;
    SolveService svc(config);
    const auto solver = std::make_shared<solvers::DigitalAnnealer>();

    // Hammer explicit flushes from a second thread while jobs stream in:
    // compaction and journal appends must interleave without losing entries.
    std::atomic<bool> done{false};
    std::thread flusher([&] {
      while (!done.load()) {
        svc.flush_cache();
        std::this_thread::sleep_for(1ms);
      }
    });
    std::vector<JobHandle> handles;
    for (std::size_t k = 0; k < kJobs; ++k) {
      handles.push_back(
          svc.submit(solver, test_model(0xA00 + k, 24), small_options()));
    }
    for (auto& handle : handles) {
      EXPECT_EQ(handle.wait().status, JobStatus::done);
    }
    done.store(true);
    flusher.join();
    // cache_stored lags completion by the append I/O; poll briefly.
    const auto give_up = std::chrono::steady_clock::now() + 5s;
    while (svc.metrics().cache_stored < kJobs &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(svc.metrics().cache_stored, kJobs);
  }
  ServiceConfig config;
  config.cache_path = path;
  SolveService reloaded(config);
  EXPECT_EQ(reloaded.metrics().cache_loaded, kJobs);
  EXPECT_EQ(reloaded.metrics().cache_load_skipped, 0u);
}

TEST(CachePersistenceTest, DisabledCacheDisablesPersistenceToo) {
  const auto path = scratch_cache_path("disabled");
  {
    ServiceConfig config;
    config.cache_capacity = 0;  // no cache -> nothing worth journaling
    config.cache_path = path;
    SolveService svc(config);
    const auto solver = std::make_shared<solvers::DigitalAnnealer>();
    EXPECT_EQ(
        svc.submit(solver, test_model(0x92), small_options()).wait().status,
        JobStatus::done);
    EXPECT_EQ(svc.metrics().cache_stored, 0u);
    EXPECT_EQ(svc.flush_cache(), 0u);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".journal"));
}

// --- ROADMAP gap: deadline joining a running execution ----------------------

/// Runs "sweeps" of 1 ms until stopped, ticking the sweep checkpoint so the
/// service watchdog gets its per-sweep polls; finishes quickly once any
/// stop source fires.  Nominal full run: ~100 s — a test that waits for
/// completion instead of the watchdog would time out loudly.
class TickingSolver final : public solvers::QuboSolver {
 public:
  explicit TickingSolver(std::shared_ptr<std::atomic<int>> entered)
      : entered_(std::move(entered)) {}
  std::string name() const override { return "ticker"; }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override {
    entered_->fetch_add(1);
    for (std::size_t sweep = 0; sweep < 100000; ++sweep) {
      if (solvers::sweep_checkpoint(options)) break;
      std::this_thread::sleep_for(1ms);
    }
    qubo::SolveBatch batch;
    batch.results.resize(1);
    batch.results[0].assignment.assign(model.num_vars(), 0);
    return batch;
  }

 private:
  std::shared_ptr<std::atomic<int>> entered_;
};

TEST(SolveServiceTest, TighterDeadlineJoiningRunningExecutionReArmsWatchdog) {
  ServiceConfig config;
  config.num_workers = 1;
  SolveService svc(config);
  const auto entered = std::make_shared<std::atomic<int>>(0);
  const auto solver = std::make_shared<TickingSolver>(entered);
  const auto model = test_model(0xB0);
  const auto options = small_options();

  JobHandle first = svc.submit(solver, model, options);
  while (entered->load() < 1) std::this_thread::sleep_for(1ms);

  // Equal fingerprint -> coalesces onto the RUNNING execution; its deadline
  // is tighter than anything the watchdog knew at execution start (nothing).
  SubmitOptions tight;
  tight.deadline = std::chrono::steady_clock::now() + 50ms;
  JobHandle late = svc.submit(solver, model, options, tight);
  ASSERT_TRUE(late.wait_for(10s))
      << "tighter deadline joining a running execution was never enforced";
  const JobResult r = late.result();
  EXPECT_EQ(r.status, JobStatus::expired);
  EXPECT_EQ(r.batch, nullptr) << "detached expiry must not leak a batch";
  EXPECT_TRUE(r.coalesced);

  // The original job is unaffected: still running, then cancellable.
  EXPECT_EQ(first.status(), JobStatus::running);
  EXPECT_EQ(svc.metrics().solver_invocations, 1u);
  EXPECT_EQ(svc.metrics().coalesced, 1u);
  first.cancel();
  EXPECT_EQ(first.wait().status, JobStatus::cancelled);
}

// ServiceSolver: the synchronous adapter returns the same batch a direct
// call produces, and repeated calls hit the cache.
TEST(ServiceSolverTest, RoutedSolveMatchesDirectSolve) {
  SolveService svc;
  std::atomic<int> invocations{0};
  const auto inner = std::make_shared<solvers::DigitalAnnealer>();
  const auto counted = std::make_shared<CountingSolver>(inner, invocations);
  const ServiceSolver routed(svc, counted);
  const auto model = test_model(0x80);
  const auto options = small_options();

  const qubo::SolveBatch direct = inner->solve(model, options);
  const qubo::SolveBatch via_service = routed.solve(model, options);
  ASSERT_EQ(direct.size(), via_service.size());
  for (std::size_t r = 0; r < direct.size(); ++r) {
    EXPECT_EQ(direct.results[r].assignment,
              via_service.results[r].assignment);
    EXPECT_EQ(direct.results[r].qubo_energy,
              via_service.results[r].qubo_energy);
  }
  EXPECT_EQ(invocations.load(), 1);
  (void)routed.solve(model, options);
  EXPECT_EQ(invocations.load(), 1) << "second routed call must hit the cache";
  EXPECT_EQ(routed.name(), "da@service");
}

}  // namespace
}  // namespace qross::service
