// qross_perfbench — end-to-end benchmark of the qross serving stack.
//
//   qross_perfbench --workload wire_batch|solve_fresh|tune_remote
//                   --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 measures one untraced window of S seconds on a fresh stack and
// prints the end-to-end metrics; set-up is timed three times (setup_s is the
// median).
// --trace 1 sets up once, measures an untraced window of S/2 seconds, then a
// traced one of S/2 seconds, and prints the per-layer split.  Either way the
// output checks run, a table goes to stdout, and the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
// is 0 only when every check passed.  See README.md.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Captured during static initialisation, before main(): the first set-up is
// timed from process start.
const Clock::time_point kProcessStart = Clock::now();

constexpr int kSetups = 3;
/// Trace ring size for the traced window (56 B per event).
constexpr std::size_t kTraceRing = std::size_t{1} << 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir = ".bench_build/perfbench/work";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: qross_perfbench --workload "
               "wire_batch|solve_fresh|tune_remote --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("every flag takes a value");
    flags[argv[i]] = argv[i + 1];
  }
  for (const auto& [flag, value] : flags) {
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  return args;
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double pct(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : qross::quantile(values, q);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The shape the benchmark promises: one client connection against a
/// service with kSolveWorkers workers.
void check_shape(const Stack& stack, Window& window) {
  if (stack.service->num_workers() != kSolveWorkers) {
    window.fail("service runs " +
                std::to_string(stack.service->num_workers()) +
                " workers, expected " + std::to_string(kSolveWorkers));
  }
  if (window.server_after.connections_accepted != 1 ||
      window.server_after.connections_active != 1) {
    window.fail("expected exactly one client connection");
  }
}

void print_result(const std::string& workload,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::string>& failures,
                  std::size_t attempted, std::size_t ok) {
  for (const auto& metric : metrics) {
    std::printf("%-12s %-36s %16.6f %s\n", workload.c_str(),
                metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const auto& failure : failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(attempted - ok);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// A workload with its inputs generated and its stack started and warm.
/// The stack is declared last, so it is torn down first.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Stack> stack;
  double seconds = 0.0;
};

/// Set-up: input generation from the seed, stack start and the workload's
/// warm-up, timed from `start`.
Setup set_up(const Args& args, Clock::time_point start) {
  Setup setup;
  setup.workload = make_workload(args.workload, args.seed, args.work_dir);
  if (setup.workload == nullptr) usage("unknown workload");
  setup.stack = start_stack(setup.workload->stack_options());
  setup.workload->warm_up(*setup.stack);
  setup.seconds = seconds_between(start, Clock::now());
  return setup;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  auto& tracer = qross::obs::TraceRecorder::instance();
  tracer.disable();

  Setup measured = set_up(args, kProcessStart);
  Workload& workload = *measured.workload;
  Stack& stack = *measured.stack;

  if (args.trace == 0) {
    Window window = workload.run(stack, args.seconds, false);
    workload.verify(stack, window);
    check_shape(stack, window);
    // Read before the repeated set-ups below, whose freed-and-reused heap
    // would otherwise add a few MB of allocator noise.
    const double rss_mb = peak_rss_mb();
    const double gap_pct = workload.gap_pct();
    // setup_s is a median: after the measured stack is torn down, set up
    // kSetups - 1 more times, timed only.
    std::vector<double> setup_s = {measured.seconds};
    measured.stack.reset();
    measured.workload.reset();
    for (int i = 1; i < kSetups; ++i) {
      setup_s.push_back(set_up(args, Clock::now()).seconds);
    }
    const double attempted = static_cast<double>(window.attempted);
    std::printf("%-12s latency samples: %zu\n", args.workload.c_str(),
                window.op_latency_ms.size());
    if (window.op_latency_ms.size() < 100) {
      std::printf("%-12s note: fewer than 10 samples beyond p90\n",
                  args.workload.c_str());
    }
    const std::vector<Metric> metrics = {
        {"throughput_per_s", window.throughput(), "1/s"},
        {"latency_p50_ms", pct(window.op_latency_ms, 0.5), "ms"},
        {"latency_p90_ms", pct(window.op_latency_ms, 0.9), "ms"},
        {"cpu_ms_per_op", attempted > 0 ? window.cpu_ms / attempted : 0.0,
         "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"ok_ratio",
         attempted > 0 ? static_cast<double>(window.ok) / attempted : 0.0,
         "ratio"},
        {"setup_s", pct(setup_s, 0.5), "s"},
        {"gap_pct", gap_pct, "%"},
    };
    print_result(args.workload, metrics, window.failures, window.attempted,
                 window.ok);
    return window.failures.empty() && window.attempted > 0 ? 0 : 1;
  }

  Window untraced = workload.run(stack, args.seconds / 2, false);
  tracer.enable(kTraceRing);
  tracer.clear();
  Window traced = workload.run(stack, args.seconds / 2, true);
  tracer.disable();
  TraceCapture trace{tracer.snapshot(), tracer.evicted(), tracer.epoch()};
  workload.verify(stack, untraced);
  workload.verify(stack, traced);
  check_shape(stack, traced);
  std::vector<std::string> failures = untraced.failures;
  failures.insert(failures.end(), traced.failures.begin(),
                  traced.failures.end());
  if (trace.evicted != 0) {
    failures.push_back("trace ring evicted " + std::to_string(trace.evicted) +
                       " events; the per-layer split is incomplete");
  }
  const auto metrics =
      layer_metrics(untraced, traced, trace, workload.kernel_shape(),
                    args.workload == "tune_remote");
  print_result(args.workload, metrics, failures,
               untraced.attempted + traced.attempted, untraced.ok + traced.ok);
  return failures.empty() && traced.attempted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qross_perfbench: %s\n", e.what());
    return 1;
  }
}
