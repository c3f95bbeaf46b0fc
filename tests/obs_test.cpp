// Tests for the observability subsystem (ISSUE 7): the trace recorder's
// ring-buffer semantics and Chrome export, the metrics registry's Prometheus
// exposition and histogram quantiles, the sliding-window rate, and
// an end-to-end stitched trace of one job through the in-process service
// (submit → queue → dispatch → kernel → journal).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "problems/mvc/mvc.hpp"
#include "qross/qross.hpp"
#include "service/metrics.hpp"

namespace qross {
namespace {

using namespace std::chrono_literals;

// The recorder is process-global; every test that uses it starts from a
// known state and disables it on exit so later tests are unaffected.
struct RecorderGuard {
  RecorderGuard() {
    obs::TraceRecorder::instance().disable();
    obs::TraceRecorder::instance().clear();
  }
  ~RecorderGuard() {
    obs::TraceRecorder::instance().disable();
    obs::TraceRecorder::instance().clear();
  }
};

TEST(TraceRecorder, DisabledRecordsNothing) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  ASSERT_FALSE(recorder.enabled());
  recorder.record_instant("nothing", "test");
  {
    obs::ScopedSpan span("nothing_span", "test");
  }
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.evicted(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(TraceRecorder, RecordsInstantsAndSpans) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  recorder.record_instant("tick", "test", 42, 7);
  const auto start = obs::TraceRecorder::Clock::now();
  recorder.record_span("work", "test", start, start + 1ms, 42, 7);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "tick");
  EXPECT_EQ(events[0].kind, obs::EventKind::instant);
  EXPECT_EQ(events[0].dur_ns, 0u);
  EXPECT_EQ(events[0].a0, 42u);
  EXPECT_EQ(events[0].a1, 7u);
  EXPECT_STREQ(events[1].name, "work");
  EXPECT_EQ(events[1].kind, obs::EventKind::span);
  EXPECT_EQ(events[1].dur_ns, 1000000u);
}

TEST(TraceRecorder, OverflowEvictsOldestWithExactCounters) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable(8);  // shrink the ring (different capacity clears it)
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.record_instant("tick", "test", /*a0=*/i + 1);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.evicted(), 12u);
  EXPECT_EQ(recorder.capacity(), 8u);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest evicted: what survives is exactly the newest 8, oldest first.
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_EQ(events[k].a0, 13 + k) << "slot " << k;
  }
  // Restore the default ring for later tests.
  recorder.enable(obs::TraceRecorder::kDefaultCapacity);
}

TEST(TraceRecorder, ScopedSpanMeasuresEnclosedWork) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  {
    obs::ScopedSpan span("scoped", "test", 5);
    std::this_thread::sleep_for(2ms);
  }
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "scoped");
  EXPECT_EQ(events[0].kind, obs::EventKind::span);
  EXPECT_GE(events[0].dur_ns, 1000000u);  // at least ~1 of the 2 ms slept
  EXPECT_EQ(events[0].a0, 5u);
}

TEST(TraceRecorder, ChromeJsonCarriesRequiredKeys) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  recorder.record_instant("mark", "cat\"quoted", 3, 9);
  const auto start = obs::TraceRecorder::Clock::now();
  recorder.record_span("work", "test", start, start + 5ms);

  const std::string json = obs::chrome_trace_json(recorder);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mark\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat\\\"quoted\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  // Args only when a job/trace id is present; the plain span has none.
  EXPECT_NE(json.find("\"args\":{\"job\":3,\"trace\":9}"), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"recorded\":2,\"evicted\":0}"),
            std::string::npos);
}

TEST(TraceRecorder, DisableKeepsBufferForDumping) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  recorder.record_instant("kept", "test");
  recorder.disable();
  recorder.record_instant("dropped", "test");
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Registry, CounterGaugeHistogramBasics) {
  obs::Registry reg;  // local registry: no cross-test name collisions
  auto* counter = reg.counter("events_total", "events");
  counter->inc();
  counter->inc(4);
  EXPECT_EQ(counter->value(), 5u);
  EXPECT_EQ(reg.counter("events_total"), counter);  // same name, same pointer

  auto* gauge = reg.gauge("depth");
  gauge->set(3.0);
  gauge->add(-1.5);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);

  auto* histogram = reg.histogram("latency_ms", {1.0, 10.0, 100.0});
  histogram->observe(0.5);
  histogram->observe(1.0);   // le semantics: lands in the 1.0 bucket
  histogram->observe(50.0);
  histogram->observe(1e9);   // +Inf bucket
  EXPECT_EQ(histogram->count(), 4u);
  EXPECT_DOUBLE_EQ(histogram->sum(), 0.5 + 1.0 + 50.0 + 1e9);
  const auto buckets = histogram->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);  // <= 1
  EXPECT_EQ(buckets[1], 0u);  // (1, 10]
  EXPECT_EQ(buckets[2], 1u);  // (10, 100]
  EXPECT_EQ(buckets[3], 1u);  // +Inf
}

TEST(Registry, KindAndBucketCollisionsThrow) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::invalid_argument);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));  // same buckets: fetch
  EXPECT_THROW(reg.histogram("empty", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("unsorted", {2.0, 1.0}), std::invalid_argument);
}

// Minimal exposition-format check: every metric family has exactly one
// # TYPE line, names are unique, histogram buckets are cumulative and
// monotone, and the +Inf bucket equals _count.
TEST(Registry, PrometheusExpositionParses) {
  obs::Registry reg;
  reg.counter("jobs_total", "jobs")->inc(3);
  reg.gauge("queue_depth", "depth")->set(2.0);
  auto* histogram = reg.histogram("wait_ms", {1.0, 5.0, 25.0}, "wait");
  histogram->observe(0.5);
  histogram->observe(4.0);
  histogram->observe(100.0);

  const std::string text = reg.render_prometheus();
  std::map<std::string, std::string> types;  // family -> type
  std::map<std::string, double> samples;     // sample line -> value
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, type;
      fields >> family >> type;
      ASSERT_FALSE(types.contains(family)) << "duplicate # TYPE " << family;
      types[family] = type;
      continue;
    }
    if (line.rfind("#", 0) == 0) continue;  // HELP
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string key = line.substr(0, space);
    ASSERT_FALSE(samples.contains(key)) << "duplicate sample " << key;
    samples[key] = std::stod(line.substr(space + 1));
  }
  EXPECT_EQ(types.at("jobs_total"), "counter");
  EXPECT_EQ(types.at("queue_depth"), "gauge");
  EXPECT_EQ(types.at("wait_ms"), "histogram");
  EXPECT_DOUBLE_EQ(samples.at("jobs_total"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("queue_depth"), 2.0);
  // Cumulative, monotone buckets ending in +Inf == _count.
  const double b1 = samples.at("wait_ms_bucket{le=\"1\"}");
  const double b5 = samples.at("wait_ms_bucket{le=\"5\"}");
  const double b25 = samples.at("wait_ms_bucket{le=\"25\"}");
  const double binf = samples.at("wait_ms_bucket{le=\"+Inf\"}");
  EXPECT_DOUBLE_EQ(b1, 1.0);
  EXPECT_DOUBLE_EQ(b5, 2.0);
  EXPECT_DOUBLE_EQ(b25, 2.0);
  EXPECT_DOUBLE_EQ(binf, 3.0);
  EXPECT_LE(b1, b5);
  EXPECT_LE(b5, b25);
  EXPECT_LE(b25, binf);
  EXPECT_DOUBLE_EQ(samples.at("wait_ms_count"), 3.0);
  EXPECT_DOUBLE_EQ(samples.at("wait_ms_sum"), 104.5);
}

// Histogram quantiles: the bucket estimates behind ServiceMetrics' latency
// percentiles, computed the way Prometheus' histogram_quantile does.

TEST(Registry, HistogramQuantileOfEmptyIsZero) {
  obs::Histogram histogram({1.0, 10.0});
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 0.0);
}

TEST(Registry, HistogramQuantileInterpolatesInsideABucket) {
  obs::Histogram histogram({10.0, 20.0, 40.0});
  for (const double v : {12.0, 14.0, 16.0, 18.0}) histogram.observe(v);
  // All four samples sit in (10, 20]: rank q * 4 is spread linearly over it.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.25), 12.5);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 20.0);

  // The first bucket starts at 0.
  obs::Histogram first({10.0, 20.0});
  first.observe(3.0);
  first.observe(7.0);
  EXPECT_DOUBLE_EQ(first.quantile(0.5), 5.0);
}

TEST(Registry, HistogramQuantileClampsTheInfBucketToTheTopBound) {
  obs::Histogram histogram({1.0, 5.0});
  histogram.observe(0.5);
  histogram.observe(1e6);
  histogram.observe(1e6);
  histogram.observe(1e6);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.99), 5.0);
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 5.0);
  EXPECT_LE(histogram.quantile(0.25), 1.0);  // the one finite sample
}

TEST(Registry, HistogramQuantilesAreOrdered) {
  obs::Histogram histogram({0.5, 1, 2.5, 5, 10, 25, 50, 100});
  std::uint64_t x = 88172645463325252ull;  // xorshift: a spread of samples
  for (int k = 0; k < 1000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    histogram.observe(static_cast<double>(x % 12000) / 100.0);
  }
  const double p50 = histogram.quantile(0.50);
  const double p90 = histogram.quantile(0.90);
  const double p99 = histogram.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 100.0);
}

TEST(Log, ParseAndNames) {
  obs::LogLevel level = obs::LogLevel::off;
  EXPECT_TRUE(obs::parse_log_level("debug", &level));
  EXPECT_EQ(level, obs::LogLevel::debug);
  EXPECT_TRUE(obs::parse_log_level("error", &level));
  EXPECT_EQ(level, obs::LogLevel::error);
  EXPECT_FALSE(obs::parse_log_level("verbose", &level));
  EXPECT_EQ(level, obs::LogLevel::error);  // untouched on failure
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::warn), "warn");
}

// ---------------------------------------------------------------------------
// SlidingWindowRate, driven with synthetic time points.

TEST(SlidingWindowRate, EarlyLifeDividesByElapsedNotWindow) {
  using Clock = service::SlidingWindowRate::Clock;
  const auto t0 = Clock::time_point(std::chrono::seconds(1000));
  service::SlidingWindowRate rate(t0);
  EXPECT_DOUBLE_EQ(rate.rate(t0), 0.0);
  for (int i = 0; i < 10; ++i) rate.record(t0);
  // Elapsed ~0 is floored at 1 s: a fresh burst reads as 10/s, not infinity.
  EXPECT_DOUBLE_EQ(rate.rate(t0), 10.0);
  EXPECT_DOUBLE_EQ(rate.rate(t0 + 30s), 10.0 / 30.0);
}

TEST(SlidingWindowRate, OldEventsFallOutOfTheWindow) {
  using Clock = service::SlidingWindowRate::Clock;
  const auto t0 = Clock::time_point(std::chrono::seconds(5000));
  service::SlidingWindowRate rate(t0);
  for (int i = 0; i < 10; ++i) rate.record(t0);
  // 120 s later the burst is older than the 60 s window: rate is 0 again.
  EXPECT_DOUBLE_EQ(rate.rate(t0 + 120s), 0.0);
}

TEST(SlidingWindowRate, SteadyStateMeasuresTrailingWindowOnly) {
  using Clock = service::SlidingWindowRate::Clock;
  const auto t0 = Clock::time_point(std::chrono::seconds(9000));
  service::SlidingWindowRate rate(t0);
  // One event per second for two minutes: only the trailing 60 survive.
  for (int s = 0; s < 120; ++s) rate.record(t0 + std::chrono::seconds(s));
  EXPECT_DOUBLE_EQ(rate.rate(t0 + 119s), 1.0);
}

TEST(SlidingWindowRate, SparseBucketsAdvanceCorrectly) {
  using Clock = service::SlidingWindowRate::Clock;
  const auto t0 = Clock::time_point(std::chrono::seconds(7000));
  service::SlidingWindowRate rate(t0);
  rate.record(t0);
  rate.record(t0 + 5s);
  rate.record(t0 + 5s);
  EXPECT_DOUBLE_EQ(rate.rate(t0 + 5s), 3.0 / 5.0);
  // A skipped stretch must zero the buckets it hops over, not reuse them.
  rate.record(t0 + 65s);
  EXPECT_DOUBLE_EQ(rate.rate(t0 + 65s), 1.0 / 60.0);
}

// ---------------------------------------------------------------------------
// End-to-end stitched trace: one job through the in-process service must
// leave submit → queue → dispatch → kernel → journal events that all carry
// the same job id and the client-supplied trace id.

TEST(ServiceTrace, JobLifecycleIsStitchedByJobAndTraceId) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable(obs::TraceRecorder::kDefaultCapacity);

  const auto cache_path =
      (std::filesystem::temp_directory_path() /
       ("qross_obs_trace_" + std::to_string(::getpid()) + ".qsnap"))
          .string();
  std::filesystem::remove(cache_path);
  std::filesystem::remove(cache_path + ".journal");

  constexpr std::uint64_t kTraceId = 0xABCDEF01;
  std::uint64_t job_id = 0;
  {
    service::ServiceConfig config;
    config.num_workers = 1;
    config.cache_path = cache_path;
    service::SolveService svc(config);

    const auto model = mvc::generate_random_mvc(32, 0.12, 99).to_qubo(2.0);
    solvers::SolveOptions options;
    options.num_replicas = 4;
    options.num_sweeps = 20;
    options.seed = 7;
    service::SubmitOptions submit;
    submit.trace_id = kTraceId;

    auto handle = svc.submit(
        std::make_shared<solvers::SimulatedAnnealer>(), model, options, submit);
    job_id = handle.id();
    const auto result = handle.wait();
    ASSERT_EQ(result.status, service::JobStatus::done);

    // The journal append runs after completion, off the waiter's thread:
    // poll until its span shows up (bounded).
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    bool journaled = false;
    while (!journaled && std::chrono::steady_clock::now() < deadline) {
      for (const auto& ev : recorder.snapshot()) {
        if (std::string_view(ev.name) == "journal_append" &&
            ev.a0 == job_id) {
          journaled = true;
          break;
        }
      }
      if (!journaled) std::this_thread::sleep_for(5ms);
    }
    EXPECT_TRUE(journaled) << "no journal_append span within 5 s";
  }
  recorder.disable();

  std::set<std::string> names;
  for (const auto& ev : recorder.snapshot()) {
    if (ev.a0 != job_id) continue;
    EXPECT_EQ(ev.a1, kTraceId) << ev.name << " lost the trace id";
    names.insert(ev.name);
  }
  for (const char* expected :
       {"submit", "queue", "dispatch", "sweep", "kernel", "journal_append",
        "job_done"}) {
    EXPECT_TRUE(names.contains(expected))
        << "missing lifecycle event: " << expected;
  }

  // The stitched story must also survive the exporter.
  const std::string json = obs::chrome_trace_json(recorder);
  EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(
      json.find("\"trace\":" + std::to_string(kTraceId)), std::string::npos);

  std::filesystem::remove(cache_path);
  std::filesystem::remove(cache_path + ".journal");
}

// Every submit computes its cache key before it takes the service lock — a
// cache hit too — and the span carries the submit's trace id.
TEST(ServiceTrace, EverySubmitRecordsAFingerprintSpan) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable(obs::TraceRecorder::kDefaultCapacity);

  constexpr std::uint64_t kTraceId = 0xF1F2F3;
  {
    service::ServiceConfig config;
    config.num_workers = 1;
    service::SolveService svc(config);
    const auto model = mvc::generate_random_mvc(24, 0.12, 98).to_qubo(2.0);
    solvers::SolveOptions options;
    options.num_replicas = 2;
    options.num_sweeps = 10;
    service::SubmitOptions submit;
    submit.trace_id = kTraceId;
    const auto solver = std::make_shared<solvers::SimulatedAnnealer>();
    ASSERT_EQ(svc.submit(solver, model, options, submit).wait().status,
              service::JobStatus::done);
    const auto hit = svc.submit(solver, model, options, submit).wait();
    ASSERT_EQ(hit.status, service::JobStatus::done);
    EXPECT_TRUE(hit.cache_hit);
  }
  recorder.disable();

  std::vector<obs::TraceEvent> spans;
  std::uint64_t first_submit_ns = 0;
  for (const auto& ev : recorder.snapshot()) {
    const std::string_view name(ev.name);
    if (name == "fingerprint") spans.push_back(ev);
    if (name == "submit" && first_submit_ns == 0) first_submit_ns = ev.ts_ns;
  }
  ASSERT_EQ(spans.size(), 2u);
  for (const auto& span : spans) {
    EXPECT_EQ(std::string_view(span.cat), "service");
    EXPECT_EQ(span.kind, obs::EventKind::span);
    EXPECT_EQ(span.a1, kTraceId);
  }
  EXPECT_LE(spans[0].ts_ns + spans[0].dur_ns, first_submit_ns)
      << "the key is computed before the submit is admitted";
}

// Tracing disabled must also keep the service silent: no events leak from an
// instrumented run when the recorder is off.
TEST(ServiceTrace, DisabledTracingRecordsNoServiceEvents) {
  RecorderGuard guard;
  auto& recorder = obs::TraceRecorder::instance();
  ASSERT_FALSE(recorder.enabled());

  service::ServiceConfig config;
  config.num_workers = 1;
  service::SolveService svc(config);
  const auto model = mvc::generate_random_mvc(24, 0.15, 3).to_qubo(2.0);
  solvers::SolveOptions options;
  options.num_replicas = 2;
  options.num_sweeps = 10;
  auto handle = svc.submit(std::make_shared<solvers::SimulatedAnnealer>(),
                           model, options);
  ASSERT_EQ(handle.wait().status, service::JobStatus::done);
  EXPECT_EQ(recorder.recorded(), 0u);
}

}  // namespace
}  // namespace qross
