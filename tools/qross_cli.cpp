// qross — command-line front end for the QROSS library.
//
// Subcommands:
//   generate  — write synthetic TSP instances as TSPLIB files
//   sweep     — sweep the relaxation parameter on one instance and print
//               the (A, Pf, Eavg, Estd, best fitness) response curve
//   train     — build a dataset from TSPLIB files and train a tuner
//   propose   — offline parameter proposal for an instance (no solver call)
//   tune      — full tuning session on an instance, printing the best tour
//   batch     — submit a file of solve jobs concurrently to the SolveService
//               (priority/deadline queue, result cache, metrics report);
//               --cache-file persists the result cache across runs, so a
//               second process replays bit-identical batches with zero
//               solver invocations
//   cache     — inspect (info), compact, or clear a persistent cache file
//   remote    — speak the qrossd network protocol: `remote batch` submits a
//               jobs file to a running daemon (same table as `batch`, jobs
//               solved remotely), `remote tune` runs a full tuning session
//               server-side (the daemon's tuner picks the probes; per-trial
//               progress streams back), `remote metrics` prints its service
//               counters (--prom for Prometheus text exposition).  A warm
//               daemon serves repeated batches — and repeated tune
//               sessions — from its cache with zero solver invocations.
//   trace     — fetch a running daemon's trace buffer as Chrome trace-event
//               JSON (load it in chrome://tracing or ui.perfetto.dev)
//
// Examples:
//   qross generate --count 8 --cities 10 --out-dir instances/
//   qross sweep --instance instances/synthetic_0.tsp --solver da
//   qross train --instances instances/ --solver da --out tuner.qross
//   qross propose --tuner tuner.qross --instance new.tsp --pf 0.9
//   qross tune --tuner tuner.qross --instance new.tsp --solver da --trials 10
//   qross batch --jobs jobs.txt --workers 4 --repeat 2 --cache-file run.qsnap
//   qross cache info --file run.qsnap
//   qross remote batch --server unix:/run/qross.sock --jobs jobs.txt
//   qross remote tune --server unix:/run/qross.sock --cities 8 --trials 6
//   qross remote metrics --server tcp:127.0.0.1:7777
//
// Exit codes: 0 success, 1 runtime failure (unreachable server, failed
// jobs), 2 usage/input errors (unknown flags, unreadable files).  Unknown
// flags are an error: every command validates its arguments against an
// allowlist before running.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "qross/qross.hpp"

using namespace qross;

namespace {

[[noreturn]] void usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr, R"(usage: qross <command> [options]

commands:
  generate --count N --cities N [--seed S] [--kind uniform|exponential|clustered]
           --out-dir DIR
  sweep    --instance FILE.tsp [--solver da|sa|qbsolv|tabu|pt] [--replicas B]
           [--sweeps N] [--seed S] [--threads T] [--a-min X] [--a-max X]
           [--points N]
  train    --instances DIR --out FILE [--solver NAME] [--replicas B]
           [--sweeps N] [--seed S] [--threads T]
  propose  --tuner FILE --instance FILE.tsp [--pf P]
  tune     --tuner FILE --instance FILE.tsp [--solver NAME] [--trials N]
           [--seed S]
  batch    --jobs FILE [--solver NAME] [--workers N] [--cache N] [--repeat K]
           [--replicas B] [--sweeps N] [--seed S] [--threads T]
           [--deadline-ms D] [--cache-file PATH]
  cache    <info|compact|clear> --file PATH [--max-entries N] [--max-bytes B]
  remote   batch   --server EP --jobs FILE [--solver NAME] [--repeat K]
                   [--replicas B] [--sweeps N] [--seed S] [--deadline-ms D]
           tune    --server EP (--instance FILE.tsp | --cities N
                   [--instance-seed S]) [--solver NAME] [--trials N]
                   [--strategy composed|mfs|pbs|ofs] [--pf P] [--seed S]
                   [--a-min X] [--a-max X]
           metrics --server EP [--prom]
           (every remote action also takes [--timeout-ms T]
            [--client-id NAME] [--trace-id N]; EP: unix:/path.sock |
            tcp:host:port | host:port; --client-id groups connections for
            the daemon's per-client quotas/weights; --trace-id stamps the
            daemon's trace spans for this run; --prom prints the Prometheus
            text exposition instead of the human-readable report; `remote
            tune` needs the daemon started with --tuner)
  trace    --server EP [--out FILE] [--timeout-ms T] [--client-id NAME]
           (the daemon's trace buffer as Chrome trace-event JSON — stdout
            by default; view in chrome://tracing or ui.perfetto.dev)
  load     --server EP [--rate R] [--duration S] [--arrivals poisson|bursty]
           [--burst-on-ms N] [--burst-off-ms N] [--clients NAME=W[,NAME=W...]]
           [--deadline-ms D] [--deadline-jitter J] [--hit-ratio H]
           [--hot-models N] [--vars N] [--density X] [--solver NAME]
           [--replicas B] [--sweeps N] [--seed S] [--connect-timeout-ms T]
           [--drain-timeout-ms T] [--json PATH] [--dry-run]
           (open-loop load replay: fires a seeded arrival schedule at a
            running qrossd regardless of completions and reports outcome
            counts, shed rate and latency quantiles; each --clients entry
            is one connection under that identity, with arrivals split by
            weight; --dry-run prints the schedule instead of replaying it —
            identical flags print an identical schedule; --json writes a
            machine-readable summary for scripts)

common options:
  --seed S      RNG master seed (default 1)
  --threads T   worker threads per solver call for the replica fan-out:
                1 = sequential, 0 = all hardware threads (default 1)

batch jobs file: one job per line, `instance.tsp A [priority] [solver]`;
blank lines and lines starting with # are skipped.
)");
  std::exit(2);
}

/// Input errors discovered after flag parsing (unreadable files, malformed
/// job lines): same exit code 2 as usage errors, but without drowning the
/// one relevant line in the full usage text.
[[noreturn]] void fail_input(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

using Args = std::map<std::string, std::string>;

/// Flags in `boolean_flags` consume no value and parse as "1"; everything
/// else is strictly `--key value`.
Args parse_args(int argc, char** argv, int first,
                std::initializer_list<const char*> boolean_flags = {}) {
  const std::set<std::string> booleans(boolean_flags.begin(),
                                       boolean_flags.end());
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage(("unexpected argument: " + key).c_str());
    const std::string name = key.substr(2);
    if (booleans.contains(name)) {
      args[name] = "1";
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    args[name] = argv[++i];
  }
  return args;
}

/// Rejects flags the command does not understand — a typo like --sweps must
/// fail loudly (exit 2) instead of silently running with defaults.
void require_known_flags(const Args& args,
                         const std::vector<const char*>& known) {
  const std::set<std::string> allowed(known.begin(), known.end());
  for (const auto& [key, value] : args) {
    if (!allowed.contains(key)) {
      usage(("unknown option --" + key).c_str());
    }
  }
}

void require_known_flags(const Args& args,
                         std::initializer_list<const char*> known) {
  require_known_flags(args, std::vector<const char*>(known));
}

/// The flags every networked command shares (see RemoteArgs), plus the
/// command's own — so the allowlists cannot drift apart per subcommand.
std::vector<const char*> with_remote_flags(
    std::initializer_list<const char*> extra) {
  std::vector<const char*> known = {"server", "client-id", "timeout-ms",
                                    "trace-id"};
  known.insert(known.end(), extra.begin(), extra.end());
  return known;
}

std::string get_or(const Args& args, const std::string& key,
                   const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

std::string require(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) usage(("missing required option --" + key).c_str());
  return it->second;
}

solvers::SolverPtr make_cli_solver(const std::string& name) {
  if (name == "da") return std::make_shared<solvers::DigitalAnnealer>();
  if (name == "sa") return std::make_shared<solvers::SimulatedAnnealer>();
  if (name == "qbsolv") return std::make_shared<solvers::Qbsolv>();
  if (name == "tabu") return std::make_shared<solvers::TabuSearch>();
  if (name == "pt") return std::make_shared<solvers::ParallelTempering>();
  usage(("unknown solver: " + name).c_str());
}

solvers::SolveOptions cli_solve_options(const Args& args,
                                        const std::string& solver) {
  solvers::SolveOptions options;
  // Per-kind defaults mirror the benchmark calibration.
  if (solver == "sa" || solver == "pt") {
    options.num_replicas = 16;
    options.num_sweeps = 200;
  } else if (solver == "da") {
    options.num_replicas = 16;
    options.num_sweeps = 60;
  } else {
    options.num_replicas = 8;
    options.num_sweeps = 20;
  }
  options.num_replicas = std::stoul(
      get_or(args, "replicas", std::to_string(options.num_replicas)));
  options.num_sweeps = std::stoul(
      get_or(args, "sweeps", std::to_string(options.num_sweeps)));
  options.seed = std::stoull(get_or(args, "seed", "1"));
  options.num_threads = std::stoul(get_or(args, "threads", "1"));
  return options;
}

std::vector<tsp::TspInstance> load_instances_from_dir(
    const std::string& directory) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file()) {
      const auto ext = entry.path().extension().string();
      if (ext == ".tsp" || ext == ".tsplib") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<tsp::TspInstance> instances;
  for (const auto& path : paths) {
    instances.push_back(tsp::load_tsplib_file(path));
    std::fprintf(stderr, "loaded %s (%zu cities)\n", path.c_str(),
                 instances.back().num_cities());
  }
  if (instances.empty()) usage("no .tsp files found in --instances directory");
  return instances;
}

int cmd_generate(const Args& args) {
  require_known_flags(args, {"count", "cities", "out-dir", "seed", "kind"});
  const auto count = std::stoul(require(args, "count"));
  const auto cities = std::stoul(require(args, "cities"));
  const auto out_dir = require(args, "out-dir");
  const auto seed = std::stoull(get_or(args, "seed", "1"));
  const auto kind = get_or(args, "kind", "uniform");
  std::filesystem::create_directories(out_dir);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t child = derive_seed(seed, i);
    tsp::TspInstance instance = [&] {
      if (kind == "uniform") return tsp::generate_uniform(cities, child);
      if (kind == "exponential") return tsp::generate_exponential(cities, child);
      if (kind == "clustered") return tsp::generate_clustered(cities, child);
      usage(("unknown kind: " + kind).c_str());
    }();
    const std::string path =
        out_dir + "/" + kind + "_" + std::to_string(i) + ".tsp";
    std::ofstream file(path);
    tsp::write_tsplib(file, instance);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  require_known_flags(args, {"instance", "solver", "replicas", "sweeps", "seed",
                             "threads", "a-min", "a-max", "points"});
  const auto instance = tsp::load_tsplib_file(require(args, "instance"));
  const auto solver_name = get_or(args, "solver", "da");
  const auto solver = make_cli_solver(solver_name);
  const auto options = cli_solve_options(args, solver_name);
  const double a_min = std::stod(get_or(args, "a-min", "1"));
  const double a_max = std::stod(get_or(args, "a-max", "100"));
  const auto points = std::stoul(get_or(args, "points", "16"));

  const surrogate::PreparedTspInstance prepared(instance);
  solvers::BatchRunner runner(prepared.problem(), solver, options);
  std::printf("A,pf,energy_avg,energy_std,best_fitness_original\n");
  for (std::size_t k = 0; k < points; ++k) {
    const double t =
        points > 1 ? double(k) / double(points - 1) : 0.5;
    const double a = a_min * std::pow(a_max / a_min, t);
    const auto sample = runner.run(a);
    std::printf("%.4f,%.4f,%.4f,%.4f,%.4f\n", a, sample.stats.pf,
                sample.stats.energy_avg, sample.stats.energy_std,
                sample.stats.has_feasible()
                    ? prepared.to_original_length(sample.stats.min_fitness)
                    : -1.0);
  }
  return 0;
}

int cmd_train(const Args& args) {
  require_known_flags(args, {"instances", "out", "solver", "replicas",
                             "sweeps", "seed", "threads"});
  const auto instances = load_instances_from_dir(require(args, "instances"));
  const auto out = require(args, "out");
  const auto solver_name = get_or(args, "solver", "da");
  const auto solver = make_cli_solver(solver_name);
  const auto options = cli_solve_options(args, solver_name);

  std::fprintf(stderr, "building dataset from %zu instances...\n",
               instances.size());
  const auto tuner =
      core::QrossTuner::fit(instances, solver, options);
  std::ofstream file(out);
  if (!file.good()) usage(("cannot write " + out).c_str());
  tuner.save(file);
  std::printf("tuner written to %s\n", out.c_str());
  return 0;
}

core::QrossTuner load_tuner(const Args& args) {
  const auto path = require(args, "tuner");
  std::ifstream file(path);
  if (!file.good()) usage(("cannot read tuner file " + path).c_str());
  return core::QrossTuner::load(file);
}

int cmd_propose(const Args& args) {
  require_known_flags(args, {"tuner", "instance", "pf"});
  const auto tuner = load_tuner(args);
  const auto instance = tsp::load_tsplib_file(require(args, "instance"));
  std::optional<double> pf_target;
  if (args.contains("pf")) pf_target = std::stod(args.at("pf"));
  const double a = tuner.propose(instance, pf_target);
  if (pf_target.has_value()) {
    std::printf("PBS(%.0f%%) proposal: A = %.4f\n", 100.0 * *pf_target, a);
  } else {
    std::printf("MFS proposal: A = %.4f\n", a);
  }
  return 0;
}

int cmd_tune(const Args& args) {
  require_known_flags(args, {"tuner", "instance", "solver", "trials", "seed"});
  const auto tuner = load_tuner(args);
  const auto instance = tsp::load_tsplib_file(require(args, "instance"));
  const auto solver_name = get_or(args, "solver", "da");
  const auto solver = make_cli_solver(solver_name);
  core::TuneOptions options;
  options.trials = std::stoul(get_or(args, "trials", "10"));
  options.seed = std::stoull(get_or(args, "seed", "1"));

  const core::TuneOutcome outcome = tuner.tune(instance, solver, options);
  std::printf("trial  A         Pf     best_so_far\n");
  for (std::size_t t = 0; t < outcome.trials.size(); ++t) {
    const auto& trial = outcome.trials[t];
    std::printf("%-6zu %-9.3f %-6.2f %s\n", t + 1,
                trial.relaxation_parameter, trial.pf,
                std::isfinite(trial.best_length_so_far)
                    ? std::to_string(trial.best_length_so_far).c_str()
                    : "-");
  }
  if (!outcome.feasible()) {
    std::printf("no feasible tour found in %zu trials\n", options.trials);
    return 1;
  }
  std::printf("\nbest tour (length %.4f, found at A = %.3f):",
              outcome.best_length, outcome.best_parameter);
  for (std::size_t city : outcome.best_tour) std::printf(" %zu", city);
  std::printf("\n");
  return 0;
}

// One parsed line of the batch jobs file.
struct BatchJobSpec {
  std::string instance_path;
  double relaxation = 25.0;
  int priority = 0;
  std::string solver_name;
};

std::vector<BatchJobSpec> load_jobs_file(const std::string& path,
                                         const std::string& default_solver) {
  // is_regular_file first: opening a DIRECTORY with ifstream "succeeds" on
  // Linux (good() is true, reads just fail), which used to surface as a
  // misleading "no jobs in <dir>".  Either way the path must exit 2 with a
  // diagnostic naming the real problem — never 0.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    fail_input("cannot read jobs file " + path +
               (ec ? " (" + ec.message() + ")" : " (missing or not a file)"));
  }
  std::ifstream file(path);
  if (!file.good()) fail_input("cannot read jobs file " + path);
  std::vector<BatchJobSpec> specs;
  std::string line;
  while (std::getline(file, line)) {
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    std::string token;
    while (fields >> token) tokens.push_back(token);
    if (tokens.empty()) continue;          // blank line
    if (tokens[0][0] == '#') continue;     // comment
    if (tokens.size() < 2 || tokens.size() > 4) {
      fail_input("jobs file line needs `instance A [priority] [solver]`: " +
                 line);
    }
    BatchJobSpec spec;
    spec.instance_path = tokens[0];
    spec.solver_name = default_solver;
    try {
      spec.relaxation = std::stod(tokens[1]);
      if (tokens.size() >= 3) spec.priority = std::stoi(tokens[2]);
    } catch (const std::exception&) {
      // A malformed number must fail loudly, not fall back to defaults.
      fail_input("bad number in jobs file line: " + line);
    }
    if (tokens.size() == 4) spec.solver_name = tokens[3];
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) fail_input("no jobs in " + path);
  return specs;
}

// Submits every job in the file to one SolveService and waits for the lot:
// the concurrent, cached, cancellable counterpart of running `sweep` lines
// one at a time.  --repeat K submits the whole file K times, so the second
// pass demonstrates cache hits / coalescing on identical fingerprints.
int cmd_batch(const Args& args) {
  require_known_flags(args, {"jobs", "solver", "workers", "cache", "repeat",
                             "replicas", "sweeps", "seed", "threads",
                             "deadline-ms", "cache-file"});
  const auto default_solver = get_or(args, "solver", "da");
  const auto specs = load_jobs_file(require(args, "jobs"), default_solver);
  const auto options = cli_solve_options(args, default_solver);
  const auto repeat = std::stoul(get_or(args, "repeat", "1"));
  const auto deadline_ms = std::stol(get_or(args, "deadline-ms", "0"));

  service::ServiceConfig config;
  config.num_workers = std::stoul(get_or(args, "workers", "4"));
  config.cache_capacity = std::stoul(get_or(args, "cache", "256"));
  config.cache_path = get_or(args, "cache-file", "");
  service::SolveService svc(config);

  // Prepared instances own the QUBO builders; keep them alive until all
  // jobs finish.  Each line builds its own model — deduplication happens
  // by *content* at the service: identical (instance, A, solver) lines
  // produce equal fingerprints and therefore coalesce or hit the cache.
  std::vector<surrogate::PreparedTspInstance> prepared;
  prepared.reserve(specs.size());
  std::vector<qubo::QuboModel> models;
  models.reserve(specs.size());
  for (const auto& spec : specs) {
    prepared.emplace_back(tsp::load_tsplib_file(spec.instance_path));
    models.push_back(prepared.back().problem().to_qubo(spec.relaxation));
  }

  struct Submitted {
    const BatchJobSpec* spec = nullptr;
    service::JobHandle handle;
  };
  std::vector<Submitted> jobs;
  jobs.reserve(specs.size() * repeat);
  for (std::size_t pass = 0; pass < repeat; ++pass) {
    for (std::size_t k = 0; k < specs.size(); ++k) {
      service::SubmitOptions submit;
      submit.priority = specs[k].priority;
      if (deadline_ms > 0) {
        submit.deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
      }
      jobs.push_back({&specs[k],
                      svc.submit(make_cli_solver(specs[k].solver_name),
                                 models[k], options, submit)});
    }
  }

  std::printf("job    instance                 solver  A        prio  status     wait_ms  run_ms   via      best_energy\n");
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const service::JobResult result = jobs[k].handle.wait();
    const char* via = result.cache_hit   ? "cache"
                      : result.coalesced ? "coalesce"
                                         : "solver";
    std::string best = "-";
    if (result.batch != nullptr && !result.batch->empty()) {
      best = std::to_string(
          result.batch->results[result.batch->best_index()].qubo_energy);
    }
    std::printf("%-6zu %-24s %-7s %-8.3f %-5d %-10s %-8.1f %-8.1f %-8s %s\n",
                k, jobs[k].spec->instance_path.c_str(),
                jobs[k].spec->solver_name.c_str(), jobs[k].spec->relaxation,
                jobs[k].spec->priority, service::to_string(result.status),
                result.wait_ms, result.run_ms, via, best.c_str());
  }

  const service::ServiceMetrics m = svc.metrics();
  std::printf(
      "\nservice: %zu workers | %zu submitted, %zu done, %zu cancelled, "
      "%zu expired, %zu failed | %s evaluation kernel\n",
      m.workers, m.submitted, m.completed, m.cancelled, m.expired, m.failed,
      m.simd_kernel.c_str());
  std::printf(
      "cache:   %zu hits, %zu misses, %zu evictions, %zu entries | "
      "%zu coalesced, %zu solver invocations\n",
      m.cache_hits, m.cache_misses, m.cache_evictions, m.cache_size,
      m.coalesced, m.solver_invocations);
  if (!config.cache_path.empty()) {
    std::printf(
        "store:   %s | %zu loaded (%zu skipped), %zu stored this run\n",
        config.cache_path.c_str(), m.cache_loaded, m.cache_load_skipped,
        m.cache_stored);
  }
  std::printf(
      "latency: wait p50/p90/p99 = %.1f/%.1f/%.1f ms | "
      "run p50/p90/p99 = %.1f/%.1f/%.1f ms | %.2f jobs/s lifetime, "
      "%.2f jobs/s recent\n",
      m.queue_wait.p50_ms, m.queue_wait.p90_ms, m.queue_wait.p99_ms,
      m.run.p50_ms, m.run.p90_ms, m.run.p99_ms, m.jobs_per_second,
      m.recent_jobs_per_second);
  return m.failed == 0 ? 0 : 1;
}

// Offline maintenance of a persistent cache file (no service needed):
//   info     what the snapshot + journal hold, and what a warm start saves
//   compact  merge the journal into the snapshot under the eviction budget
//   clear    remove both files
int cmd_cache(const std::string& action, const Args& args) {
  require_known_flags(args, {"file", "max-entries", "max-bytes"});
  io::CacheStoreConfig config;
  config.path = require(args, "file");
  config.max_entries = std::stoul(get_or(args, "max-entries", "4096"));
  config.max_bytes = std::stoull(
      get_or(args, "max-bytes", std::to_string(config.max_bytes)));
  io::CacheStore store(config);

  if (action == "clear") {
    store.clear();
    std::printf("cleared %s (+journal)\n", config.path.c_str());
    return 0;
  }
  if (action == "compact") {
    const auto before = store.info();
    const std::size_t kept = store.compact();
    std::printf(
        "compacted %s: %zu snapshot + %zu journal records -> %zu entries "
        "(%zu skipped as corrupt)\n",
        config.path.c_str(), before.snapshot_records, before.journal_records,
        kept, before.skipped_records);
    return 0;
  }
  if (action == "info") {
    const auto info = store.info();
    if (!info.snapshot_exists && !info.journal_exists) {
      std::printf("%s: no snapshot or journal\n", config.path.c_str());
      return 1;
    }
    std::printf("snapshot: %s%s\n", config.path.c_str(),
                info.snapshot_exists ? "" : " (absent)");
    if (info.version_rejected) {
      std::printf(
          "  written by a NEWER format version — this build refuses it\n");
    } else if (info.snapshot_exists) {
      std::printf("  format v%u, %zu records, %llu bytes\n",
                  info.snapshot_version, info.snapshot_records,
                  static_cast<unsigned long long>(info.snapshot_bytes));
    }
    std::printf("journal:  %s records, %llu bytes%s\n",
                std::to_string(info.journal_records).c_str(),
                static_cast<unsigned long long>(info.journal_bytes),
                info.journal_exists ? "" : " (absent)");
    std::printf(
        "live:     %zu entries (%zu corrupt records skipped) | warm start "
        "saves %.1f ms of solver time\n",
        info.live_entries, info.skipped_records, info.saved_run_ms);
    return 0;
  }
  usage(("unknown cache action: " + action).c_str());
}

/// The one parse of the flags every networked command shares: endpoint,
/// client identity (per-client quotas / fair-share weight on the daemon),
/// request timeout, and the trace correlation id stamped on the daemon's
/// spans.  `remote batch|tune|metrics` and `trace` all go through here.
struct RemoteArgs {
  std::string server;  ///< the raw --server spec, kept for diagnostics
  net::ClientConfig config;
  std::uint64_t trace_id = 0;
};

RemoteArgs parse_remote_args(const Args& args) {
  RemoteArgs remote;
  remote.server = require(args, "server");
  const auto endpoint = net::Endpoint::parse(remote.server);
  if (!endpoint.has_value()) {
    usage(("cannot parse --server endpoint: " + remote.server).c_str());
  }
  remote.config.server = *endpoint;
  remote.config.client_id = get_or(args, "client-id", "");
  remote.config.request_timeout_ms =
      static_cast<int>(std::stol(get_or(args, "timeout-ms", "120000")));
  remote.trace_id = std::stoull(get_or(args, "trace-id", "0"));
  return remote;
}

net::Client make_remote_client(const RemoteArgs& remote) {
  return net::Client(remote.config);
}

/// Dials and handshakes; on failure prints the one diagnostic every remote
/// command used to format by hand and exits 1 (runtime failure).
void connect_or_fail(net::Client& client, const RemoteArgs& remote) {
  std::string error;
  if (!client.connect(&error)) {
    std::fprintf(stderr, "error: cannot connect to %s: %s\n",
                 remote.server.c_str(), error.c_str());
    std::exit(1);
  }
}

// The networked counterpart of `batch`: the same jobs file, solved by a
// running qrossd.  Prints the same result table plus a client-side tally of
// how each result was produced — a second run against a warm daemon reports
// "0 solver invocations" because every job is a server-side cache hit.
int cmd_remote_batch(const Args& args) {
  require_known_flags(args, with_remote_flags({"jobs", "solver", "repeat",
                                               "replicas", "sweeps", "seed",
                                               "deadline-ms"}));
  const RemoteArgs remote = parse_remote_args(args);
  const auto default_solver = get_or(args, "solver", "da");
  const auto specs = load_jobs_file(require(args, "jobs"), default_solver);
  const auto options = cli_solve_options(args, default_solver);
  const auto repeat = std::stoul(get_or(args, "repeat", "1"));
  const auto deadline_ms = std::stol(get_or(args, "deadline-ms", "0"));

  // Dial before the (potentially slow) instance loads so a dead endpoint
  // fails fast; the jobs file was already validated above.
  net::Client client = make_remote_client(remote);
  connect_or_fail(client, remote);

  std::vector<surrogate::PreparedTspInstance> prepared;
  prepared.reserve(specs.size());
  std::vector<net::RemoteJob> jobs;
  jobs.reserve(specs.size() * repeat);
  for (const auto& spec : specs) {
    prepared.emplace_back(tsp::load_tsplib_file(spec.instance_path));
    net::RemoteJob job;
    job.solver = spec.solver_name;
    job.model = prepared.back().problem().to_qubo(spec.relaxation);
    job.num_replicas = static_cast<std::uint32_t>(options.num_replicas);
    job.num_sweeps = static_cast<std::uint32_t>(options.num_sweeps);
    job.seed = options.seed;
    job.priority = spec.priority;
    // One shared trace id for the whole run: `qross trace` stitches the
    // whole batch out of the daemon's buffer by this correlation id.
    job.trace_id = remote.trace_id;
    if (deadline_ms > 0) {
      job.deadline_ms = static_cast<std::uint32_t>(deadline_ms);
    }
    jobs.push_back(std::move(job));
  }
  const std::size_t base = jobs.size();
  for (std::size_t pass = 1; pass < repeat; ++pass) {
    for (std::size_t k = 0; k < base; ++k) jobs.push_back(jobs[k]);
  }

  const auto results = client.run(jobs);

  std::printf("job    instance                 solver  A        prio  status     wait_ms  run_ms   via      best_energy\n");
  std::size_t failed = 0, cache_hits = 0, coalesced = 0, solver_runs = 0,
              unfinished = 0;
  for (std::size_t k = 0; k < results.size(); ++k) {
    const auto& result = results[k];
    const auto& spec = specs[k % specs.size()];
    const char* via = result.cache_hit   ? "cache"
                      : result.coalesced ? "coalesce"
                                         : "solver";
    // Tally by how the result was actually produced; an expired or
    // cancelled job is NOT a solver invocation (its kernel was skipped or
    // stopped early) and must not inflate that count.
    if (result.status == service::JobStatus::failed) {
      ++failed;
    } else if (result.cache_hit) {
      ++cache_hits;
    } else if (result.coalesced) {
      ++coalesced;
    } else if (result.status == service::JobStatus::done) {
      ++solver_runs;
    } else {
      ++unfinished;  // expired / cancelled
    }
    std::string best = "-";
    if (result.batch != nullptr && !result.batch->empty()) {
      best = std::to_string(
          result.batch->results[result.batch->best_index()].qubo_energy);
    }
    std::printf("%-6zu %-24s %-7s %-8.3f %-5d %-10s %-8.1f %-8.1f %-8s %s\n",
                k, spec.instance_path.c_str(), spec.solver_name.c_str(),
                spec.relaxation, spec.priority,
                service::to_string(result.status), result.wait_ms,
                result.run_ms, via, best.c_str());
    if (!result.error.empty()) {
      std::fprintf(stderr, "job %zu: %s\n", k, result.error.c_str());
    }
  }
  std::printf(
      "\nremote: %zu results | %zu cache hits, %zu coalesced, "
      "%zu solver invocations, %zu expired/cancelled, %zu failed\n",
      results.size(), cache_hits, coalesced, solver_runs, unfinished, failed);
  if (const auto metrics = client.fetch_metrics()) {
    const net::MetricsFrame& reply = metrics.value();
    std::printf(
        "server: %zu workers | %zu submitted lifetime, %zu cached entries | "
        "%.2f jobs/s recent | %llu connections served, %llu active\n",
        reply.service.workers, reply.service.submitted,
        reply.service.cache_size, reply.service.recent_jobs_per_second,
        static_cast<unsigned long long>(reply.connections_accepted),
        static_cast<unsigned long long>(reply.connections_active));
  }
  return failed == 0 ? 0 : 1;
}

// The networked counterpart of `tune`: the daemon's trained tuner picks the
// probes (its surrogate batches our predictions with other live sessions),
// every probe solve runs through its cached SolveService, and per-trial
// progress streams back as TuneStatus frames.  Same seed + same instance =
// bit-identical probed-A sequence and outcome as in-process `tune`; a rerun
// against a warm daemon reports 0 solver invocations.
int cmd_remote_tune(const Args& args) {
  require_known_flags(
      args, with_remote_flags({"instance", "cities", "instance-seed", "solver",
                               "strategy", "pf", "trials", "seed", "a-min",
                               "a-max"}));
  const RemoteArgs remote = parse_remote_args(args);

  // The instance travels by value (distance matrix, IEEE-exact), so either
  // a TSPLIB file or a synthetic instance regenerated from --instance-seed
  // yields the same session on any client.
  const tsp::TspInstance instance = [&] {
    if (args.contains("instance")) {
      if (args.contains("cities")) {
        usage("--instance and --cities are mutually exclusive");
      }
      return tsp::load_tsplib_file(args.at("instance"));
    }
    if (!args.contains("cities")) {
      usage("remote tune needs --instance FILE.tsp or --cities N");
    }
    const auto cities = std::stoul(args.at("cities"));
    const auto seed = std::stoull(get_or(args, "instance-seed", "1"));
    return tsp::generate_uniform(cities, seed);
  }();

  net::RemoteTune tune;
  tune.solver = get_or(args, "solver", "da");
  tune.instance = net::pack_tsp_instance(instance);
  tune.instance_name = instance.name();
  const auto strategy = get_or(args, "strategy", "composed");
  if (strategy == "composed") {
    tune.strategy = net::kTuneComposed;
  } else if (strategy == "mfs") {
    tune.strategy = net::kTuneMfs;
  } else if (strategy == "pbs") {
    tune.strategy = net::kTunePbs;
  } else if (strategy == "ofs") {
    tune.strategy = net::kTuneOfs;
  } else {
    usage(("unknown strategy: " + strategy).c_str());
  }
  if (args.contains("pf")) tune.pf_target = std::stod(args.at("pf"));
  tune.trials = static_cast<std::uint32_t>(
      std::stoul(get_or(args, "trials", "10")));
  tune.a_min = std::stod(get_or(args, "a-min", "1"));
  tune.a_max = std::stod(get_or(args, "a-max", "100"));
  tune.seed = std::stoull(get_or(args, "seed", "1"));
  tune.trace_id = remote.trace_id;

  net::Client client = make_remote_client(remote);
  connect_or_fail(client, remote);

  const auto submitted = client.submit_tune(tune);
  if (!submitted.ok()) {
    std::fprintf(stderr, "error: tune submit failed (%s): %s\n",
                 net::to_string(submitted.error().kind),
                 submitted.error().message.c_str());
    return 1;
  }
  auto outcome = client.tune_wait(submitted.value());
  if (!outcome.ok()) {
    std::fprintf(stderr, "error: tune session lost (%s): %s\n",
                 net::to_string(outcome.error().kind),
                 outcome.error().message.c_str());
    return 1;
  }
  const net::TuneResultFrame& result = outcome.value();

  // Same table as in-process `tune`, from the terminal frame (the streamed
  // TuneStatus frames carry the identical rows incrementally).
  std::printf("trial  A         Pf     best_so_far\n");
  for (std::size_t t = 0; t < result.trials.size(); ++t) {
    const auto& trial = result.trials[t];
    std::printf("%-6zu %-9.3f %-6.2f %s\n", t + 1,
                trial.relaxation_parameter, trial.pf,
                std::isfinite(trial.best_length_so_far)
                    ? std::to_string(trial.best_length_so_far).c_str()
                    : "-");
  }
  if (result.status == net::kTuneFailed) {
    std::fprintf(stderr, "error: tune session failed on the server: %s\n",
                 result.error.c_str());
    return 1;
  }
  if (result.status == net::kTuneCancelled) {
    std::printf("tune session cancelled after %zu trials\n",
                result.trials.size());
    return 1;
  }
  const bool feasible = !result.best_tour.empty();
  if (feasible) {
    std::printf("\nbest tour (length %.4f, found at A = %.3f):",
                result.best_length, result.best_parameter);
    for (const std::uint32_t city : result.best_tour) {
      std::printf(" %u", city);
    }
    std::printf("\n");
  } else {
    std::printf("no feasible tour found in %u trials\n", tune.trials);
  }
  std::printf(
      "\nremote tune: %s | %zu trials, %llu solver invocations, "
      "%.1f ms session wall time\n",
      instance.name().c_str(), result.trials.size(),
      static_cast<unsigned long long>(result.solver_invocations),
      result.wall_ms);
  return feasible ? 0 : 1;
}

int cmd_remote_metrics(const Args& args) {
  require_known_flags(args, with_remote_flags({"prom"}));
  const RemoteArgs remote = parse_remote_args(args);
  net::Client client = make_remote_client(remote);
  connect_or_fail(client, remote);
  if (args.contains("prom")) {
    // Raw Prometheus text exposition, suitable for a textfile collector or
    // a curl-style scrape through this CLI.
    const auto text = client.fetch_prometheus();
    if (!text.ok()) {
      std::fprintf(stderr, "error: prometheus request failed: %s\n",
                   text.error().message.c_str());
      return 1;
    }
    std::fwrite(text.value().data(), 1, text.value().size(), stdout);
    return 0;
  }
  const auto metrics = client.fetch_metrics();
  if (!metrics.ok()) {
    std::fprintf(stderr, "error: metrics request failed: %s\n",
                 metrics.error().message.c_str());
    return 1;
  }
  const net::MetricsFrame& reply = metrics.value();
  const auto& m = reply.service;
  std::printf("protocol: v%u negotiated\n", client.negotiated_version());
  std::printf(
      "service:  %zu workers | %zu submitted, %zu done, %zu cancelled, "
      "%zu expired, %zu failed | queue %zu, running %zu | "
      "%s evaluation kernel\n",
      m.workers, m.submitted, m.completed, m.cancelled, m.expired, m.failed,
      m.queue_depth, m.running, m.simd_kernel.c_str());
  std::printf(
      "cache:    %zu hits, %zu misses, %zu entries | %zu coalesced, "
      "%zu solver invocations | %zu loaded from disk, %zu stored\n",
      m.cache_hits, m.cache_misses, m.cache_size, m.coalesced,
      m.solver_invocations, m.cache_loaded, m.cache_stored);
  std::printf(
      "latency:  wait p50/p90/p99 = %.1f/%.1f/%.1f ms | "
      "run p50/p90/p99 = %.1f/%.1f/%.1f ms | %.2f jobs/s over %.1f s, "
      "%.2f jobs/s in the last 60 s\n",
      m.queue_wait.p50_ms, m.queue_wait.p90_ms, m.queue_wait.p99_ms,
      m.run.p50_ms, m.run.p90_ms, m.run.p99_ms, m.jobs_per_second,
      m.uptime_seconds, m.recent_jobs_per_second);
  std::printf(
      "server:   %llu connections accepted, %llu active, "
      "%llu protocol errors, %llu refused full\n",
      static_cast<unsigned long long>(reply.connections_accepted),
      static_cast<unsigned long long>(reply.connections_active),
      static_cast<unsigned long long>(reply.protocol_errors),
      static_cast<unsigned long long>(reply.connections_rejected_full));
  std::printf(
      "admission: %llu submissions rejected by per-client quotas | "
      "this connection is client '%s'\n",
      static_cast<unsigned long long>(reply.service.admission_rejected),
      reply.client_id.c_str());
  if (!reply.clients.empty()) {
    std::printf(
        "clients:  id                       weight  queued  inflight "
        "submitted  done      dispatched rejected(infl/queue)\n");
    for (const auto& c : reply.clients) {
      std::printf(
          "          %-24s %-7.2f %-7zu %-8zu %-10llu %-9llu %-10llu "
          "%llu/%llu\n",
          c.client_id.c_str(), c.weight, c.queued, c.inflight,
          static_cast<unsigned long long>(c.submitted),
          static_cast<unsigned long long>(c.completed),
          static_cast<unsigned long long>(c.dispatched),
          static_cast<unsigned long long>(c.rejected_inflight),
          static_cast<unsigned long long>(c.rejected_queued));
    }
  }
  return 0;
}

// Fetches the daemon's trace ring as Chrome trace-event JSON.  With no
// --out the JSON goes to stdout (pipe it straight into a file or jq); with
// --out it is written there and a one-line summary goes to stdout.
int cmd_trace(const Args& args) {
  require_known_flags(args, with_remote_flags({"out"}));
  const RemoteArgs remote = parse_remote_args(args);
  const auto out_path = get_or(args, "out", "");
  // Open the sink BEFORE dialing: an unwritable --out is an input error
  // (exit 2) and must fail without touching the network.
  std::ofstream out_file;
  if (!out_path.empty()) {
    out_file.open(out_path, std::ios::binary | std::ios::trunc);
    if (!out_file.good()) fail_input("cannot write --out " + out_path);
  }
  net::Client client = make_remote_client(remote);
  connect_or_fail(client, remote);
  const auto trace = client.fetch_trace();
  if (!trace.ok()) {
    std::fprintf(stderr, "error: trace request failed: %s\n",
                 trace.error().message.c_str());
    return 1;
  }
  const std::string& json = trace.value();
  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::printf("\n");
  } else {
    out_file.write(json.data(), static_cast<std::streamsize>(json.size()));
    out_file.close();
    if (!out_file.good()) fail_input("short write to --out " + out_path);
    std::printf("trace written to %s (%zu bytes)\n", out_path.c_str(),
                json.size());
  }
  return 0;
}

// Open-loop load replay against a running daemon (see src/load/).  The
// schedule is generated client-side from the flags — deterministically, so
// --dry-run twice with the same flags prints byte-identical plans — and
// fired on the clock; results are classified ok/shed/expired/failed/lost
// and summarized.  --json writes the summary for scripts (loadsmoke in CI
// asserts on it).
int cmd_load(const Args& args) {
  require_known_flags(
      args, {"server", "rate", "duration", "arrivals", "burst-on-ms",
             "burst-off-ms", "clients", "deadline-ms", "deadline-jitter",
             "hit-ratio", "hot-models", "vars", "density", "solver",
             "replicas", "sweeps", "seed", "connect-timeout-ms",
             "drain-timeout-ms", "json", "dry-run"});
  load::WorkloadConfig workload;
  workload.rate_per_sec = std::stod(get_or(args, "rate", "100"));
  workload.duration_sec = std::stod(get_or(args, "duration", "1"));
  if (!load::parse_arrival_kind(get_or(args, "arrivals", "poisson"),
                                &workload.arrivals)) {
    usage("--arrivals must be poisson or bursty");
  }
  workload.burst_on_sec = std::stod(get_or(args, "burst-on-ms", "50")) / 1e3;
  workload.burst_off_sec = std::stod(get_or(args, "burst-off-ms", "50")) / 1e3;
  workload.hit_ratio = std::stod(get_or(args, "hit-ratio", "0"));
  workload.hot_models = std::stoul(get_or(args, "hot-models", "4"));
  workload.model_vars = std::stoul(get_or(args, "vars", "32"));
  workload.model_density = std::stod(get_or(args, "density", "0.08"));
  workload.seed = std::stoull(get_or(args, "seed", "1"));
  const auto deadline_ms =
      static_cast<std::uint32_t>(std::stoul(get_or(args, "deadline-ms", "0")));
  const auto deadline_jitter = std::stod(get_or(args, "deadline-jitter", "0.2"));
  const std::string clients_spec = get_or(args, "clients", "");
  if (!clients_spec.empty()) {
    std::stringstream stream(clients_spec);
    std::string part;
    while (std::getline(stream, part, ',')) {
      load::ClientSpec client;
      const auto eq = part.find('=');
      client.client_id = eq == std::string::npos ? part : part.substr(0, eq);
      if (client.client_id.empty()) {
        fail_input("malformed --clients entry: '" + part +
                   "' (want NAME or NAME=WEIGHT)");
      }
      if (eq != std::string::npos) {
        try {
          client.mix_weight = std::stod(part.substr(eq + 1));
        } catch (const std::exception&) {
          fail_input("malformed --clients weight in '" + part + "'");
        }
      }
      client.deadline_mean_ms = deadline_ms;
      client.deadline_jitter = deadline_jitter;
      workload.clients.push_back(std::move(client));
    }
  } else if (deadline_ms > 0) {
    load::ClientSpec client;
    client.deadline_mean_ms = deadline_ms;
    client.deadline_jitter = deadline_jitter;
    workload.clients.push_back(std::move(client));
  }

  load::Schedule schedule;
  try {
    schedule = load::generate_schedule(workload);
  } catch (const std::invalid_argument& e) {
    fail_input(e.what());
  }

  if (args.contains("dry-run")) {
    // The plan, not the replay: arrival_us client priority deadline_ms
    // hot/fresh model_seed.  Same flags → byte-identical output, which is
    // how CI proves schedule determinism without touching a server.
    std::printf("# %zu arrivals over %.3f s (%s, rate %.1f/s, seed %llu)\n",
                schedule.jobs.size(), schedule.config.duration_sec,
                load::to_string(schedule.config.arrivals),
                schedule.config.rate_per_sec,
                static_cast<unsigned long long>(schedule.config.seed));
    for (const auto& job : schedule.jobs) {
      std::printf("%10.0f %-12s prio %-3d deadline %-6u %-5s %016llx\n",
                  job.arrival_sec * 1e6,
                  schedule.config.clients[job.client].client_id.c_str(),
                  job.priority, job.deadline_ms, job.hot ? "hot" : "fresh",
                  static_cast<unsigned long long>(job.model_seed));
    }
    return 0;
  }

  const std::string server = require(args, "server");
  const auto endpoint = net::Endpoint::parse(server);
  if (!endpoint.has_value()) {
    usage(("cannot parse --server endpoint: " + server).c_str());
  }
  load::ReplayConfig replay_config;
  replay_config.server = *endpoint;
  replay_config.solver = get_or(args, "solver", "da");
  (void)make_cli_solver(replay_config.solver);  // exit 2 on unknown name
  replay_config.num_replicas = static_cast<std::uint32_t>(
      std::stoul(get_or(args, "replicas", "2")));
  replay_config.num_sweeps =
      static_cast<std::uint32_t>(std::stoul(get_or(args, "sweeps", "10")));
  replay_config.solve_seed = workload.seed;
  replay_config.connect_timeout_ms =
      static_cast<int>(std::stol(get_or(args, "connect-timeout-ms", "5000")));
  replay_config.drain_timeout_sec =
      std::stod(get_or(args, "drain-timeout-ms", "30000")) / 1e3;

  const auto result = load::replay(schedule, replay_config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: load replay failed: %s\n",
                 result.error.c_str());
    return 1;
  }
  const auto summary = load::summarize(schedule, result);
  load::print_summary(stdout, summary);
  if (args.contains("json")) {
    const std::string path = args.at("json");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) fail_input("cannot write --json " + path);
    load::write_summary_json(f, summary);
    std::fclose(f);
    std::printf("summary written to %s\n", path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "cache") {
      if (argc < 3 || argv[2][0] == '-') {
        usage("cache needs an action: info, compact or clear");
      }
      return cmd_cache(argv[2], parse_args(argc, argv, 3));
    }
    if (command == "remote") {
      if (argc < 3 || argv[2][0] == '-') {
        usage("remote needs an action: batch, tune or metrics");
      }
      const std::string action = argv[2];
      const Args remote_args = parse_args(argc, argv, 3, {"prom"});
      if (action == "batch") return cmd_remote_batch(remote_args);
      if (action == "tune") return cmd_remote_tune(remote_args);
      if (action == "metrics") return cmd_remote_metrics(remote_args);
      usage(("unknown remote action: " + action).c_str());
    }
    if (command == "trace") return cmd_trace(parse_args(argc, argv, 2));
    if (command == "load") {
      return cmd_load(parse_args(argc, argv, 2, {"dry-run"}));
    }
    const Args args = parse_args(argc, argv, 2);
    if (command == "generate") return cmd_generate(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "train") return cmd_train(args);
    if (command == "propose") return cmd_propose(args);
    if (command == "tune") return cmd_tune(args);
    if (command == "batch") return cmd_batch(args);
    usage(("unknown command: " + command).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
