#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/rng.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "problems/tsp/exact.hpp"
#include "problems/tsp/generators.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/qbsolv.hpp"
#include "surrogate/pipeline.hpp"

namespace perfbench {
namespace {

namespace net = qross::net;
namespace tsp = qross::tsp;
using qross::obs::TraceRecorder;

/// The first operations of every workload use instances drawn from this
/// fixed seed, whatever the run seed: gap_pct is taken over them, so it
/// repeats exactly across runs and seeds and moves only when results do.
constexpr std::uint64_t kQualitySeed = 0x6A9D1CE5ull;
/// History the tune_remote surrogate is fitted on: the service's trained
/// model is a fixed artefact, not a per-run input.
constexpr std::uint64_t kTunerHistorySeed = 0xFACADEull;
/// Penalty weight A of every raw TSP job (prepared-instance units).
constexpr double kRelaxation = 25.0;

double process_cpu_ms() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

std::size_t framed_size(std::uint32_t type,
                        const std::vector<std::uint8_t>& payload) {
  return net::frame(type, payload).size();
}

std::size_t submit_frame_bytes(const net::RemoteJob& job) {
  net::SubmitJobFrame submit;
  submit.solver = job.solver;
  submit.num_replicas = job.num_replicas;
  submit.num_sweeps = job.num_sweeps;
  submit.seed = job.seed;
  submit.model = job.model;
  return framed_size(qross::io::kRecordNetSubmitJob,
                     net::encode_submit(submit));
}

bool same_batch(const qross::qubo::SolveBatch& a,
                const qross::qubo::SolveBatch& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.results[i].assignment != b.results[i].assignment ||
        std::bit_cast<std::uint64_t>(a.results[i].qubo_energy) !=
            std::bit_cast<std::uint64_t>(b.results[i].qubo_energy)) {
      return false;
    }
  }
  return true;
}

/// Mean optimality gap, in percent, of feasible results against Held–Karp.
class GapMean {
 public:
  void add(const tsp::TspInstance& instance, double length) {
    if (!std::isfinite(length)) return;  // nothing feasible to score
    const double optimal = tsp::solve_held_karp(instance).length;
    sum_ += (length / optimal - 1.0) * 100.0;
    ++count_;
  }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

/// One raw TSP solve job: the instance's QUBO at A = kRelaxation.
struct TspJob {
  std::shared_ptr<const qross::surrogate::PreparedTspInstance> prepared;
  net::RemoteJob remote;
};

TspJob make_tsp_job(std::size_t cities, std::uint64_t instance_seed,
                    std::size_t replicas, std::size_t sweeps) {
  TspJob job;
  job.prepared = std::make_shared<const qross::surrogate::PreparedTspInstance>(
      tsp::generate_uniform(cities, instance_seed));
  job.remote.solver = "da";
  job.remote.model = job.prepared->problem().to_qubo(kRelaxation);
  job.remote.num_replicas = static_cast<std::uint32_t>(replicas);
  job.remote.num_sweeps = static_cast<std::uint32_t>(sweeps);
  job.remote.seed = qross::derive_seed(instance_seed, 1);
  return job;
}

/// Best feasible tour in the batch, on the original distances; +inf if none.
double best_tour_length(const qross::surrogate::PreparedTspInstance& prepared,
                        const qross::qubo::SolveBatch& batch) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& result : batch.results) {
    best = std::min(best, prepared.original_tour_length(result.assignment));
  }
  return best;
}

/// Seed of the k-th instance: the fixed quality stream for the first
/// `prefix` operations, the run seed's stream after them.
std::uint64_t instance_seed(std::uint64_t run_seed, std::size_t k,
                            std::size_t prefix) {
  return k < prefix ? qross::derive_seed(kQualitySeed, k)
                    : qross::derive_seed(run_seed, k);
}

/// Size of a file, 0 when it does not exist (yet).
std::uint64_t file_bytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : size;
}

void record_client_span(const char* name, Clock::time_point from,
                        Clock::time_point to, std::uint64_t trace_id) {
  TraceRecorder::instance().record_span(name, "bench", from, to, 0, trace_id);
}

// --- wire_batch --------------------------------------------------------------

/// Bursts of 64 cache-warm jobs over one connection: submit all, then wait
/// for all.  The hot set is solved during set-up, so every timed job is a
/// cache hit and the kernel does no work.
class WireBatch final : public Workload {
 public:
  static constexpr std::size_t kHotSet = 256;
  static constexpr std::size_t kBurst = 64;
  static constexpr std::size_t kCities = 8;  // 64 binary variables
  static constexpr std::size_t kQualityPrefix = 16;

  explicit WireBatch(std::uint64_t seed) {
    hot_.reserve(kHotSet);
    for (std::size_t k = 0; k < kHotSet; ++k) {
      hot_.push_back(make_tsp_job(kCities, instance_seed(seed, k,
                                                         kQualityPrefix),
                                  4, 30));
      // Only the quality prefix is scored; the rest need just the model.
      if (k >= kQualityPrefix) hot_.back().prepared.reset();
    }
  }

  StackOptions stack_options() const override { return {}; }

  void warm_up(Stack& stack) override {
    net::Client& client = *stack.client;
    reference_.resize(kHotSet);
    reply_bytes_.resize(kHotSet);
    // Filled in bursts of the timed shape, so no more than kBurst models
    // wait in the service queue at once.
    for (std::size_t first = 0; first < kHotSet; first += kBurst) {
      std::unordered_map<std::uint64_t, std::size_t> slot_of_tag;
      for (std::size_t k = first; k < first + kBurst; ++k) {
        const auto tag = client.submit_job(hot_[k].remote);
        if (!tag.ok()) throw std::runtime_error(tag.error().message);
        slot_of_tag.emplace(tag.value(), k);
      }
      while (!slot_of_tag.empty()) {
        pump(client);
        for (auto& result : client.take_ready_results()) {
          const std::size_t k = slot_of_tag.at(result.tag);
          slot_of_tag.erase(result.tag);
          if (result.status != qross::service::JobStatus::done ||
              result.batch == nullptr || result.cache_hit) {
            throw std::runtime_error("hot-set fill job " + std::to_string(k) +
                                     " did not solve: " + result.error);
          }
          reply_bytes_[k] = submit_frame_bytes(hot_[k].remote) +
                            framed_size(qross::io::kRecordNetResult,
                                        net::encode_result(result));
          reference_[k] = result.batch;
        }
      }
    }
    GapMean gap;
    for (std::size_t k = 0; k < kQualityPrefix; ++k) {
      gap.add(hot_[k].prepared->original(),
              best_tour_length(*hot_[k].prepared, *reference_[k]));
    }
    gap_pct_ = gap.mean();
  }

  void verify(Stack&, Window& window) override {
    const auto runs = window.service_after.solver_invocations -
                      window.service_before.solver_invocations;
    if (runs != 0) {
      window.fail("wire_batch: " + std::to_string(runs) +
                  " solver invocations in the timed window");
    }
  }

  double gap_pct() const override { return gap_pct_; }
  KernelShape kernel_shape() const override { return {}; }

 protected:
  void drive(Stack& stack, Window& window, bool traced,
             const std::function<bool()>& open) override {
    net::Client& client = *stack.client;
    struct Slot {
      std::size_t hot = 0;
      Request request;
    };
    std::unordered_map<std::uint64_t, Slot> slots;
    slots.reserve(kBurst);
    while (open()) {
      const auto burst_start = Clock::now();
      bool burst_ok = true;
      for (std::size_t k = 0; k < kBurst; ++k) {
        Slot slot;
        slot.hot = cursor_++ % kHotSet;
        net::RemoteJob& job = hot_[slot.hot].remote;
        job.trace_id = traced ? next_trace_id_++ : 0;
        slot.request.trace_id = job.trace_id;
        slot.request.submit_begin = Clock::now();
        const auto tag = client.submit_job(job);
        slot.request.submit_end = Clock::now();
        if (!tag.ok()) {
          window.fail("submit: " + tag.error().message);
          burst_ok = false;
          continue;
        }
        if (traced) {
          record_client_span("client_submit", slot.request.submit_begin,
                             slot.request.submit_end, job.trace_id);
        }
        slots.emplace(tag.value(), slot);
      }
      while (!slots.empty()) {
        pump(client);
        for (auto& result : client.take_ready_results()) {
          const auto it = slots.find(result.tag);
          if (it == slots.end()) continue;
          Slot& slot = it->second;
          slot.request.observed = Clock::now();
          if (result.status != qross::service::JobStatus::done ||
              !result.cache_hit || result.batch == nullptr ||
              !same_batch(*result.batch, *reference_[slot.hot])) {
            window.fail("wire_batch: hot job " + std::to_string(slot.hot) +
                        " not served bit-identically from the cache");
            burst_ok = false;
          }
          if (traced) {
            record_client_span("client_wait", slot.request.submit_end,
                               slot.request.observed, slot.request.trace_id);
            slot.request.wait_ms = result.wait_ms;
            slot.request.run_ms = result.run_ms;
            slot.request.wire_bytes = reply_bytes_[slot.hot];
            window.requests.push_back(slot.request);
          }
          slots.erase(it);
        }
      }
      window.op_latency_ms.push_back(ms_between(burst_start, Clock::now()));
      ++window.attempted;
      if (burst_ok) ++window.ok;
    }
  }

 private:
  std::vector<TspJob> hot_;
  std::vector<std::shared_ptr<const qross::qubo::SolveBatch>> reference_;
  std::vector<std::size_t> reply_bytes_;
  std::size_t cursor_ = 0;
  double gap_pct_ = 0.0;
};

// --- solve_fresh -------------------------------------------------------------

/// Two cache-miss jobs always outstanding on a service with a cache file:
/// the kernel does nearly all the work and every result is journaled.
class SolveFresh final : public Workload {
 public:
  static constexpr std::size_t kCities = 10;
  static constexpr std::size_t kReplicas = 8;
  static constexpr std::size_t kSweeps = 40;
  static constexpr std::size_t kInFlight = 2;
  static constexpr std::size_t kWarmUpJobs = 8;
  static constexpr std::size_t kQualityPrefix = 32;
  /// Jobs 0, kSampleEvery, 2 kSampleEvery, ... (kSamples of them) are
  /// re-solved in-process after the window.  A fixed count keeps the
  /// retained models out of peak_rss_mb's dependence on throughput.
  static constexpr std::size_t kSampleEvery = 32;
  static constexpr std::size_t kSamples = 8;

  SolveFresh(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed), cache_path_(work_dir + "/solve_fresh.qsnap") {
    std::filesystem::remove(cache_path_);
    std::filesystem::remove(journal_path());
    for (std::size_t k = 0; k < kWarmUpJobs; ++k) {
      warm_up_jobs_.push_back(make_tsp_job(
          kCities, qross::derive_seed(seed ^ 0x5EEDull, k), kReplicas,
          kSweeps));
    }
    next_ = make_job(0);
  }

  StackOptions stack_options() const override {
    StackOptions options;
    options.cache_path = cache_path_;
    return options;
  }

  void warm_up(Stack& stack) override {
    net::Client& client = *stack.client;
    std::size_t outstanding = 0;
    for (const auto& job : warm_up_jobs_) {
      if (!client.submit_job(job.remote).ok()) {
        throw std::runtime_error("warm-up submit failed");
      }
      ++outstanding;
    }
    while (outstanding > 0) {
      pump(client);
      for (const auto& result : client.take_ready_results()) {
        if (result.status != qross::service::JobStatus::done) {
          throw std::runtime_error("warm-up job failed: " + result.error);
        }
        --outstanding;
      }
    }
  }

  void verify(Stack&, Window& window) override {
    const auto runs = window.service_after.solver_invocations -
                      window.service_before.solver_invocations;
    if (runs != window.attempted) {
      window.fail("solve_fresh: " + std::to_string(runs) +
                  " solver invocations for " +
                  std::to_string(window.attempted) + " jobs");
    }
    for (const auto& [k, sample] : samples_) {
      qross::solvers::SolveOptions options;
      options.num_replicas = sample.job.num_replicas;
      options.num_sweeps = sample.job.num_sweeps;
      options.seed = sample.job.seed;
      const auto local =
          qross::solvers::DigitalAnnealer().solve(sample.job.model, options);
      if (!same_batch(local, *sample.batch)) {
        window.fail("solve_fresh: job " + std::to_string(k) +
                    " differs from an in-process solve");
        if (window.ok > 0) --window.ok;
      }
    }
    samples_.clear();
    if (quality_done_ < kQualityPrefix) {
      window.fail("solve_fresh: quality prefix incomplete");
    }
  }

  double gap_pct() const override { return gap_.mean(); }
  KernelShape kernel_shape() const override {
    return {kReplicas, kSweeps, kCities * kCities};
  }

 protected:
  void drive(Stack& stack, Window& window, bool traced,
             const std::function<bool()>& open) override {
    net::Client& client = *stack.client;
    struct Live {
      TspJob job;
      std::size_t index = 0;
      Request request;
    };
    std::unordered_map<std::uint64_t, Live> live;
    const std::uint64_t journal_start = file_bytes(journal_path());
    const auto submit_next = [&] {
      Live entry{std::move(next_), next_index_, {}};
      entry.job.remote.trace_id = traced ? next_trace_id_++ : 0;
      entry.request.trace_id = entry.job.remote.trace_id;
      entry.request.submit_begin = Clock::now();
      const auto tag = client.submit_job(entry.job.remote);
      entry.request.submit_end = Clock::now();
      ++window.attempted;
      if (!tag.ok()) {
        window.fail("submit: " + tag.error().message);
      } else {
        if (traced) {
          record_client_span("client_submit", entry.request.submit_begin,
                             entry.request.submit_end, entry.request.trace_id);
          entry.request.wire_bytes = submit_frame_bytes(entry.job.remote);
        }
        live.emplace(tag.value(), std::move(entry));
      }
      // Generated while the workers solve, so it never holds a slot empty.
      next_ = make_job(++next_index_);
    };
    while (live.size() < kInFlight && open()) submit_next();
    while (!live.empty()) {
      pump(client);
      for (auto& result : client.take_ready_results()) {
        const auto it = live.find(result.tag);
        if (it == live.end()) continue;
        Live& entry = it->second;
        entry.request.observed = Clock::now();
        window.op_latency_ms.push_back(
            ms_between(entry.request.submit_begin, entry.request.observed));
        if (result.status == qross::service::JobStatus::done &&
            !result.cache_hit && !result.coalesced && result.batch != nullptr &&
            result.batch->size() == kReplicas) {
          ++window.ok;
        } else {
          window.fail("solve_fresh: job " + std::to_string(entry.index) +
                      " not solved fresh: " + result.error);
        }
        if (traced) {
          record_client_span("client_wait", entry.request.submit_end,
                             entry.request.observed, entry.request.trace_id);
          entry.request.wait_ms = result.wait_ms;
          entry.request.run_ms = result.run_ms;
          entry.request.wire_bytes += framed_size(
              qross::io::kRecordNetResult, net::encode_result(result));
          window.requests.push_back(entry.request);
        }
        if (result.batch != nullptr) {
          if (entry.index < kQualityPrefix) {
            gap_.add(entry.job.prepared->original(),
                     best_tour_length(*entry.job.prepared, *result.batch));
            ++quality_done_;
          }
          if (entry.index % kSampleEvery == 0 &&
              entry.index < kSampleEvery * kSamples) {
            samples_.emplace(entry.index,
                             Sample{std::move(entry.job.remote), result.batch});
          }
        }
        live.erase(it);
        if (open()) submit_next();
      }
    }
    window.journal_bytes = file_bytes(journal_path()) - journal_start;
  }

 private:
  struct Sample {
    net::RemoteJob job;
    std::shared_ptr<const qross::qubo::SolveBatch> batch;
  };

  TspJob make_job(std::size_t k) const {
    return make_tsp_job(kCities, instance_seed(seed_, k, kQualityPrefix),
                        kReplicas, kSweeps);
  }
  std::string journal_path() const { return cache_path_ + ".journal"; }

  std::uint64_t seed_;
  std::string cache_path_;
  std::vector<TspJob> warm_up_jobs_;
  TspJob next_;
  std::size_t next_index_ = 0;
  std::map<std::size_t, Sample> samples_;
  GapMean gap_;
  std::size_t quality_done_ = 0;
};

// --- tune_remote -------------------------------------------------------------

/// Two QROSS tuning sessions always in flight over SubmitTune: strategies,
/// surrogate inference and the cross-session combiner share the work with
/// the probe solves.
class TuneRemote final : public Workload {
 public:
  static constexpr std::size_t kCities = 12;
  static constexpr std::uint32_t kTrials = 8;
  static constexpr std::size_t kProbeReplicas = 8;
  static constexpr std::size_t kProbeSweeps = 20;
  static constexpr std::size_t kInFlight = 2;
  static constexpr std::size_t kQualityPrefix = 16;
  /// Sessions 0, kSampleEvery, ... (kSamples of them) are re-run in-process.
  static constexpr std::size_t kSampleEvery = 16;
  static constexpr std::size_t kSamples = 6;

  explicit TuneRemote(std::uint64_t seed) : seed_(seed) {
    // Fitted as the serving tests fit it: a small Qbsolv-labelled history.
    qross::solvers::QbsolvParams params;
    params.num_rounds = 1;
    params.subsolver_sweeps = 10;
    qross::surrogate::SweepConfig sweep;
    sweep.slope_points = 5;
    sweep.plateau_points = 1;
    sweep.bisection_steps = 5;
    qross::solvers::SolveOptions fit_options;
    fit_options.num_replicas = 8;
    fit_options.num_sweeps = 10;
    fit_options.seed = 3;
    const auto fitted = qross::core::QrossTuner::fit(
        tsp::generate_synthetic_dataset(8, 6, 9, kTunerHistorySeed),
        std::make_shared<qross::solvers::Qbsolv>(params), fit_options, sweep);
    qross::solvers::SolveOptions probe_options;
    probe_options.num_replicas = kProbeReplicas;
    probe_options.num_sweeps = kProbeSweeps;
    probe_options.seed = 3;
    tuner_.emplace(fitted.surrogate(), probe_options);
  }

  StackOptions stack_options() const override {
    StackOptions options;
    options.tuner = *tuner_;
    return options;
  }

  void warm_up(Stack&) override {}

  void verify(Stack&, Window& window) override {
    for (const auto& [k, sample] : samples_) {
      qross::core::TuneOptions options;
      options.trials = kTrials;
      options.seed = sample.seed;
      const auto local = tuner_->tune(
          sample.instance, std::make_shared<qross::solvers::DigitalAnnealer>(),
          options);
      if (!same_outcome(local, sample.remote)) {
        window.fail("tune_remote: session " + std::to_string(k) +
                    " differs from in-process tuning");
        if (window.ok > 0) --window.ok;
      }
    }
    samples_.clear();
    if (quality_done_ < kQualityPrefix) {
      window.fail("tune_remote: quality prefix incomplete");
    }
  }

  double gap_pct() const override { return gap_.mean(); }
  KernelShape kernel_shape() const override {
    return {kProbeReplicas, kProbeSweeps, kCities * kCities};
  }

 protected:
  void drive(Stack& stack, Window& window, bool traced,
             const std::function<bool()>& open) override {
    net::Client& client = *stack.client;
    struct Live {
      tsp::TspInstance instance;
      std::uint64_t seed = 0;
      std::size_t index = 0;
      Request request;
    };
    std::map<std::uint64_t, Live> live;
    const auto submit_next = [&] {
      const std::size_t k = next_index_++;
      const std::uint64_t s = instance_seed(seed_, k, kQualityPrefix);
      net::RemoteTune tune;
      tune.solver = "da";
      tune.instance = net::pack_tsp_instance(tsp::generate_uniform(kCities, s));
      tune.instance_name = "bench-" + std::to_string(k);
      tune.trials = kTrials;
      tune.seed = qross::derive_seed(s, 1);
      tune.trace_id = traced ? next_trace_id_++ : 0;
      Live entry{net::unpack_tsp_instance(tune.instance, tune.instance_name),
                 tune.seed, k, {}};
      entry.request.trace_id = tune.trace_id;
      entry.request.submit_begin = Clock::now();
      const auto tag = client.submit_tune(tune);
      entry.request.submit_end = Clock::now();
      ++window.attempted;
      if (!tag.ok()) {
        window.fail("submit_tune: " + tag.error().message);
        return;
      }
      if (traced) {
        record_client_span("client_submit_tune", entry.request.submit_begin,
                           entry.request.submit_end, tune.trace_id);
        net::SubmitTuneFrame frame;
        frame.solver = tune.solver;
        frame.trials = tune.trials;
        frame.seed = tune.seed;
        frame.instance = tune.instance;
        frame.trace_id = tune.trace_id;
        frame.instance_name = tune.instance_name;
        entry.request.wire_bytes = framed_size(
            qross::io::kRecordNetSubmitTune, net::encode_submit_tune(frame));
      }
      live.emplace(tag.value(), std::move(entry));
    };
    while (live.size() < kInFlight && open()) submit_next();
    std::size_t streamed = 0;
    auto last_progress = Clock::now();
    while (!live.empty()) {
      pump(client);
      // A session's TuneResult follows its last TuneStatus frame, so a tag
      // with every trial streamed is complete or about to be: tune_wait()
      // then returns without holding up the other session.
      std::vector<std::uint64_t> finished;
      std::size_t now_streamed = 0;
      for (const auto& [tag, entry] : live) {
        const std::size_t statuses = client.tune_status(tag).size();
        now_streamed += statuses;
        if (statuses >= kTrials) finished.push_back(tag);
      }
      // A failed or cancelled session ends with fewer statuses.  Healthy
      // sessions stream one per probe, so after a quiet spell the oldest
      // session is waited on directly.
      if (now_streamed != streamed) {
        streamed = now_streamed;
        last_progress = Clock::now();
      } else if (finished.empty() &&
                 Clock::now() - last_progress > std::chrono::seconds(2)) {
        finished.push_back(live.begin()->first);
      }
      for (const auto tag : finished) {
        Live entry = std::move(live.at(tag));
        live.erase(tag);
        auto outcome = client.tune_wait(tag);
        entry.request.observed = Clock::now();
        window.op_latency_ms.push_back(
            ms_between(entry.request.submit_begin, entry.request.observed));
        if (!outcome.ok()) {
          window.fail("tune_wait: " + outcome.error().message);
        } else {
          complete(window, traced, client.tune_status(tag), entry.instance,
                   entry.seed, entry.index, entry.request,
                   std::move(outcome).value());
        }
        if (open()) submit_next();
      }
    }
  }

 private:
  struct Sample {
    tsp::TspInstance instance;
    std::uint64_t seed = 0;
    net::TuneResultFrame remote;
  };

  void complete(Window& window, bool traced,
                const std::vector<net::TuneStatusFrame>& statuses,
                const tsp::TspInstance& instance, std::uint64_t seed,
                std::size_t index, Request request,
                net::TuneResultFrame result) {
    if (result.status == net::kTuneDone && result.trials.size() == kTrials &&
        !result.best_tour.empty()) {
      ++window.ok;
    } else {
      window.fail("tune_remote: session " + std::to_string(index) +
                  " did not complete: " + result.error);
    }
    if (traced) {
      record_client_span("client_tune_wait", request.submit_end,
                         request.observed, request.trace_id);
      request.run_ms = result.wall_ms;
      request.solver_calls = result.solver_invocations;
      for (const auto& status : statuses) {
        request.wire_bytes +=
            framed_size(qross::io::kRecordNetTuneStatus,
                        net::encode_tune_status(status));
      }
      request.wire_bytes += framed_size(qross::io::kRecordNetTuneResult,
                                        net::encode_tune_result(result));
      window.requests.push_back(request);
    }
    if (index < kQualityPrefix) {
      gap_.add(instance, result.best_length);
      ++quality_done_;
    }
    if (index % kSampleEvery == 0 && index < kSampleEvery * kSamples) {
      samples_.emplace(index, Sample{instance, seed, std::move(result)});
    }
  }

  static bool same_outcome(const qross::core::TuneOutcome& local,
                           const net::TuneResultFrame& remote) {
    if (local.trials.size() != remote.trials.size() ||
        local.best_tour.size() != remote.best_tour.size() ||
        local.best_length != remote.best_length ||
        local.best_parameter != remote.best_parameter) {
      return false;
    }
    for (std::size_t t = 0; t < local.trials.size(); ++t) {
      if (local.trials[t].relaxation_parameter !=
              remote.trials[t].relaxation_parameter ||
          local.trials[t].pf != remote.trials[t].pf ||
          local.trials[t].best_length_so_far !=
              remote.trials[t].best_length_so_far) {
        return false;
      }
    }
    for (std::size_t i = 0; i < local.best_tour.size(); ++i) {
      if (local.best_tour[i] != remote.best_tour[i]) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  std::optional<qross::core::QrossTuner> tuner_;
  std::size_t next_index_ = 0;
  std::map<std::size_t, Sample> samples_;
  GapMean gap_;
  std::size_t quality_done_ = 0;
};

}  // namespace

void Workload::pump(net::Client& client) const {
  std::string error;
  if (!client.poll(1000, &error)) {
    throw std::runtime_error("client connection lost: " + error);
  }
  if (Clock::now() > give_up_) {
    throw std::runtime_error("the stack stopped answering");
  }
}

Window Workload::run(Stack& stack, double seconds, bool traced) {
  Window window;
  auto& tracer = TraceRecorder::instance();
  // A traced window closes before the ring can wrap: evicted events would
  // silently drop spans from the per-layer split.
  const std::uint64_t ring_budget = tracer.capacity() / 2;
  window.service_before = stack.service->metrics();
  if (stack.tune) window.tune_before = stack.tune->metrics();
  window.server_before = stack.server->stats();
  const double cpu_start = process_cpu_ms();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  give_up_ = deadline + std::chrono::seconds(60);
  const auto open = [&] {
    if (Clock::now() >= deadline) return false;
    return !traced || tracer.recorded() < ring_budget;
  };
  drive(stack, window, traced, open);
  window.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  window.cpu_ms = process_cpu_ms() - cpu_start;
  window.service_after = stack.service->metrics();
  if (stack.tune) window.tune_after = stack.tune->metrics();
  window.server_after = stack.server->stats();
  return window;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "wire_batch") return std::make_unique<WireBatch>(seed);
  if (name == "solve_fresh") {
    return std::make_unique<SolveFresh>(seed, work_dir);
  }
  if (name == "tune_remote") return std::make_unique<TuneRemote>(seed);
  return nullptr;
}

}  // namespace perfbench
