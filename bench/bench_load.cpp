// Latency-under-load curves: open-loop arrival traffic against a live
// server over loopback TCP, swept across arrival rates, written to
// BENCH_load.json (schema qross-bench-load-v1).
//
// A closed-loop bench (submit 64, wait) can never overload the server — it
// adapts to whatever the server sustains, so p99 under pressure is
// invisible.  Here the src/load/ generator plans Poisson and bursty
// arrival schedules, and the replayer fires them on the clock regardless
// of completions, so queueing delay, shed rate, and deadline expiry under
// overload are honestly measured.
//
// Hardware normalisation: a fixed jobs/s sweep would saturate a laptop and
// idle a big server.  Instead a closed-loop pass over the wire first
// measures this machine's capacity, and every curve row offers a FRACTION
// of it (0.25x .. 2x).  The committed rows are then comparable across
// machines: 0.5x of capacity should serve ~everything anywhere, and 2x
// should shed — which is also what makes the --check gate portable.
//
//   ./bench_load [--out-dir DIR] [--check BASELINE_DIR]
//
// --check (the CI gate, in bench_service_json's ratio-normalised style):
// only SUB-CAPACITY rows (rate_fraction <= 0.5) gate, on ok_ratio — the
// fraction of offered jobs served OK, dimensionless by construction —
// with a generous 40% relative tolerance.  Overload rows (1x, 2x) and the
// fairness columns are informational: their exact values depend on timing
// races the tolerance cannot bound, and what they claim (shed > 0, polite
// p95 below greedy) is asserted functionally by the loadsmoke CI step.
// A fresh row with no matching baseline row prints `SKIPPED` and a final
// summary count — silently ungated coverage is itself a CI smell.
//
// Every run, --check or not, exits 1 when a row scores more cache hits
// than its own schedule can explain (own_hit_ceiling): the rows share one
// service cache, so such a row replayed another row's models.
// BENCH_load.json is written only when every check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "harness/json_scrape.hpp"
#include "load/replayer.hpp"
#include "load/report.hpp"
#include "load/workload.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "problems/mvc/mvc.hpp"
#include "service/solve_service.hpp"

namespace {

using namespace qross;

// Shared shape for every job in this bench: heavy enough that a 2-worker
// service saturates at a few thousand jobs/s (so open-loop schedules stay
// small), light enough that one row replays in well under a second.
constexpr std::size_t kModelVars = 64;
constexpr double kModelDensity = 0.08;
constexpr std::uint32_t kReplicas = 8;
constexpr std::uint32_t kSweeps = 100;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kCapacityJobs = 24;  // stays under max_queued_per_client
constexpr std::size_t kJobsPerRow = 500;  // expected arrivals per curve row
constexpr std::uint64_t kSeed = 0x10AD;
constexpr double kHitRatio = 0.3;  // share of jobs drawn from the hot set

/// Only rows offered at or below this fraction of measured capacity gate:
/// they should serve ~everything on any machine, so their ok_ratio is
/// stable.  Above it, shed/expiry races make exact ratios timing-noise.
constexpr double kGatedFractionMax = 0.5;
constexpr double kLoadRegressionTolerance = 0.40;

struct CurveRow {
  load::ArrivalKind arrivals = load::ArrivalKind::poisson;
  double rate_fraction = 0.0;
  /// True for the deadline-heavy mix: EVERY client submits with a tight
  /// deadline, at a rate past capacity — the row that puts a non-zero
  /// `expired_rate` in the committed curves (informational, never gated:
  /// its rate_fraction is above kGatedFractionMax by construction).
  bool deadline_heavy = false;
  std::size_t hit_ceiling = 0;  ///< own_hit_ceiling of the row's schedule
  load::LoadSummary summary;
};

/// The most cache hits a schedule can score on its own: every hot draw
/// after the first of its model seed (fresh seeds never repeat).  More
/// means the row replayed models another row already cached: two rows
/// sharing one seed stream.
std::size_t own_hit_ceiling(const load::Schedule& schedule) {
  std::size_t hot_draws = 0;
  std::set<std::uint64_t> hot_seeds;
  for (const auto& job : schedule.jobs) {
    if (!job.hot) continue;
    ++hot_draws;
    hot_seeds.insert(job.model_seed);
  }
  return hot_draws - hot_seeds.size();
}

double client_p95(const load::LoadSummary& summary, const std::string& id) {
  for (const auto& client : summary.clients) {
    if (client.client_id == id) return client.latency.p95_ms;
  }
  return 0.0;
}

/// Closed-loop capacity over the wire: queue-depth-24 submits through the
/// same endpoint, solver runs forced (bypass_cache), best of 3 windows.
double measure_capacity(const net::Endpoint& endpoint) {
  net::ClientConfig config;
  config.server = endpoint;
  config.client_id = "capacity";
  net::Client client(config);
  std::string error;
  if (!client.connect(&error)) {
    std::fprintf(stderr, "bench_load: capacity client connect failed: %s\n",
                 error.c_str());
    std::exit(1);
  }
  std::vector<net::RemoteJob> jobs;
  jobs.reserve(kCapacityJobs);
  for (std::size_t k = 0; k < kCapacityJobs; ++k) {
    net::RemoteJob job;
    job.solver = "da";
    job.model = mvc::generate_random_mvc(kModelVars, kModelDensity,
                                         0xCAB0 + k)
                    .to_qubo(2.0);
    job.num_replicas = kReplicas;
    job.num_sweeps = kSweeps;
    job.bypass_cache = true;  // capacity means solver runs, not cache hits
    jobs.push_back(std::move(job));
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    const auto results = client.run(jobs);
    const double wall = watch.elapsed_seconds();
    for (const auto& result : results) {
      if (result.status != service::JobStatus::done) {
        std::fprintf(stderr, "bench_load: capacity job unexpectedly %s: %s\n",
                     service::to_string(result.status), result.error.c_str());
        std::exit(1);
      }
    }
    best = std::max(best,
                    static_cast<double>(results.size()) / wall);
  }
  return best;
}

CurveRow run_row(const net::Endpoint& endpoint, load::ArrivalKind arrivals,
                 double fraction, double capacity,
                 bool deadline_heavy = false) {
  load::WorkloadConfig workload;
  workload.arrivals = arrivals;
  workload.rate_per_sec = fraction * capacity;
  workload.duration_sec = std::clamp(
      static_cast<double>(kJobsPerRow) / workload.rate_per_sec, 0.1, 2.0);
  workload.hit_ratio = kHitRatio;
  workload.hot_models = 16;
  workload.model_vars = kModelVars;
  workload.model_density = kModelDensity;
  // Greedy floods (4x the polite client's arrivals, no deadline); polite
  // trickles with a deadline and a 4x server-side fair-share weight — the
  // curve's fairness columns show DRR keeping its p95 below greedy's.
  load::ClientSpec greedy;
  greedy.client_id = "greedy";
  greedy.mix_weight = 4.0;
  load::ClientSpec polite;
  polite.client_id = "polite";
  polite.mix_weight = 1.0;
  polite.deadline_mean_ms = 250;
  polite.deadline_jitter = 0.2;
  if (deadline_heavy) {
    // Deadline-heavy mix: the flooding client submits with deadlines too,
    // tight enough that past-capacity queueing blows through them — the
    // queue-expiry path (`expired` without a solver invocation) shows up in
    // the committed curves instead of only in unit tests.
    greedy.deadline_mean_ms = 150;
    greedy.deadline_jitter = 0.3;
    polite.deadline_mean_ms = 150;
    polite.deadline_jitter = 0.3;
  }
  workload.clients = {greedy, polite};
  // One stream per row, chained over (mix, arrivals, fraction): the rows
  // share one service cache, so two rows on one stream would replay each
  // other's models as cache hits.
  workload.seed = derive_seed(
      derive_seed(derive_seed(kSeed, deadline_heavy ? 1 : 0),
                  static_cast<std::uint64_t>(arrivals)),
      static_cast<std::uint64_t>(std::lround(fraction * 100.0)));

  const auto schedule = load::generate_schedule(workload);

  load::ReplayConfig replay_config;
  replay_config.server = endpoint;
  replay_config.num_replicas = kReplicas;
  replay_config.num_sweeps = kSweeps;
  replay_config.drain_timeout_sec = 20.0;
  const auto result = load::replay(schedule, replay_config);
  if (!result.ok()) {
    std::fprintf(stderr, "bench_load: replay failed: %s\n",
                 result.error.c_str());
    std::exit(1);
  }

  CurveRow row;
  row.arrivals = arrivals;
  row.rate_fraction = fraction;
  row.deadline_heavy = deadline_heavy;
  row.hit_ceiling = own_hit_ceiling(schedule);
  row.summary = load::summarize(schedule, result);
  std::fprintf(stderr,
               "%-7s %.2fx%s  offered %7.1f/s  ok %5.1f%%  shed %5.1f%%  "
               "expired %5.1f%%  p50 %7.2f  p95 %7.2f  p99 %7.2f ms\n",
               load::to_string(arrivals), fraction,
               deadline_heavy ? " (deadline-heavy)" : "",
               row.summary.offered_per_sec,
               100.0 * row.summary.counts.ok_ratio(),
               100.0 * row.summary.counts.shed_rate(),
               100.0 * row.summary.counts.expired_rate(),
               row.summary.latency.p50_ms, row.summary.latency.p95_ms,
               row.summary.latency.p99_ms);
  return row;
}

void write_load_json(const std::string& path, double capacity,
                     const std::vector<CurveRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"qross-bench-load-v1\",\n");
  std::fprintf(f, "  \"workers\": %zu,\n", kWorkers);
  std::fprintf(f,
               "  \"workload\": \"mvc n=%zu da replicas=%u sweeps=%u, "
               "greedy:polite 4:1 arrivals, polite weight 4 deadline 250ms, "
               "hit_ratio %.1f\",\n",
               kModelVars, kReplicas, kSweeps, kHitRatio);
  std::fprintf(f, "  \"capacity_jobs_per_sec\": %.1f,\n", capacity);
  std::fprintf(f, "  \"rows\": [\n");
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto& row = rows[k];
    const auto& s = row.summary;
    const double greedy_p95 = client_p95(s, "greedy");
    const double polite_p95 = client_p95(s, "polite");
    std::fprintf(
        f,
        "    {\"arrivals\": \"%s\", \"rate_fraction\": %.2f, "
        "\"mix\": \"%s\", "
        "\"offered_per_sec\": %.1f, \"jobs\": %zu, "
        "\"completed_per_sec\": %.1f, \"ok_ratio\": %.4f, "
        "\"shed_rate\": %.4f, \"expired_rate\": %.4f, "
        "\"cache_hits\": %zu, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"greedy_p95_ms\": %.3f, "
        "\"polite_p95_ms\": %.3f, \"polite_greedy_p95_ratio\": %.3f}%s\n",
        load::to_string(row.arrivals), row.rate_fraction,
        row.deadline_heavy ? "deadline_heavy" : "standard", s.offered_per_sec,
        s.counts.jobs, s.completed_per_sec, s.counts.ok_ratio(),
        s.counts.shed_rate(), s.counts.expired_rate(), s.counts.cache_hits,
        s.latency.p50_ms, s.latency.p95_ms, s.latency.p99_ms, greedy_p95,
        polite_p95, greedy_p95 > 0.0 ? polite_p95 / greedy_p95 : 0.0,
        k + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// --- regression gate (the shared harness scraper, gating style) ------------

int check_against_baseline(const std::string& baseline_dir,
                           const std::vector<CurveRow>& fresh) try {
  const std::string path = baseline_dir + "/BENCH_load.json";
  const std::string text = bench::slurp(path);
  if (text.empty()) {
    std::fprintf(stderr, "load gate: cannot read baseline %s\n", path.c_str());
    return 1;
  }
  const auto arrivals = bench::extract_values(text, "arrivals");
  const auto fractions = bench::extract_values(text, "rate_fraction");
  const auto ok_ratios = bench::extract_values(text, "ok_ratio");
  if (arrivals.size() != fractions.size() ||
      fractions.size() != ok_ratios.size()) {
    std::fprintf(stderr, "load gate: malformed baseline %s\n", path.c_str());
    return 1;
  }
  int regressions = 0;
  int skipped = 0;
  for (const auto& row : fresh) {
    const std::string kind = load::to_string(row.arrivals);
    bool matched = false;
    for (std::size_t k = 0; k < arrivals.size(); ++k) {
      if (arrivals[k] != kind ||
          std::abs(std::stod(fractions[k]) - row.rate_fraction) > 1e-6) {
        continue;
      }
      matched = true;
      const double fresh_ok = row.summary.counts.ok_ratio();
      const double base_ok = std::stod(ok_ratios[k]);
      if (row.rate_fraction > kGatedFractionMax + 1e-9) {
        std::fprintf(stderr,
                     "load gate: %-7s %.2fx ok_ratio %.3f vs baseline %.3f "
                     "(overload row, informational)\n",
                     kind.c_str(), row.rate_fraction, fresh_ok, base_ok);
        break;
      }
      const double floor = base_ok * (1.0 - kLoadRegressionTolerance);
      const bool bad = fresh_ok < floor;
      std::fprintf(stderr,
                   "load gate: %-7s %.2fx ok_ratio %.3f vs baseline %.3f "
                   "(floor %.3f) %s\n",
                   kind.c_str(), row.rate_fraction, fresh_ok, base_ok, floor,
                   bad ? "REGRESSION" : "ok");
      if (bad) ++regressions;
      break;
    }
    if (!matched) {
      std::fprintf(stderr, "load gate: SKIPPED %s %.2fx (no baseline row)\n",
                   kind.c_str(), row.rate_fraction);
      ++skipped;
    }
  }
  if (skipped > 0) {
    std::fprintf(stderr,
                 "load gate: %d section(s) SKIPPED — update the committed "
                 "BENCH_load.json to restore gate coverage\n",
                 skipped);
  }
  return regressions;
} catch (const std::exception& e) {
  std::fprintf(stderr, "load gate: malformed baseline value in %s: %s\n",
               baseline_dir.c_str(), e.what());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  std::string baseline_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out-dir DIR] [--check BASELINE_DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  // Quotas tight enough that genuine overload sheds (the 2x rows), loose
  // enough that sub-capacity rows admit everything.
  service::ServiceConfig config;
  config.num_workers = kWorkers;
  config.cache_capacity = 256;
  config.max_queued_per_client = 32;
  config.max_inflight_per_client = 64;
  config.client_weights["polite"] = 4.0;
  service::SolveService svc(config);

  net::ServerConfig server_config;
  server_config.listen.push_back(*net::Endpoint::parse("tcp:127.0.0.1:0"));
  net::Server server(svc, server_config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_load: server start failed: %s\n",
                 error.c_str());
    return 1;
  }
  const auto endpoint = server.endpoints().front();

  const double capacity = measure_capacity(endpoint);
  std::fprintf(stderr, "capacity: %.1f jobs/s closed-loop over tcp "
               "(%zu workers)\n", capacity, kWorkers);

  std::vector<CurveRow> rows;
  for (const auto kind :
       {load::ArrivalKind::poisson, load::ArrivalKind::bursty}) {
    for (const double fraction : {0.25, 0.5, 1.0, 2.0}) {
      rows.push_back(run_row(endpoint, kind, fraction, capacity));
    }
  }
  // Deadline-heavy overload row at a unique rate_fraction (1.5x, so the
  // baseline matcher — keyed on arrivals + fraction — never confuses it
  // with a standard row).  Above kGatedFractionMax, hence informational.
  rows.push_back(run_row(endpoint, load::ArrivalKind::poisson, 1.5, capacity,
                         /*deadline_heavy=*/true));
  server.stop();

  // Both checks run before the write: a row that reused another row's
  // models measured the cache, not the service, and the gate must read the
  // baseline before this run replaces it (--out-dir may equal --check).
  int reused = 0;
  for (const auto& row : rows) {
    const auto& counts = row.summary.counts;
    if (counts.cache_hits <= row.hit_ceiling) continue;
    std::fprintf(stderr,
                 "bench_load: %s %.2fx scored %zu cache hits in %zu jobs, "
                 "above its ceiling %zu: rows share a seed stream\n",
                 load::to_string(row.arrivals), row.rate_fraction,
                 counts.cache_hits, counts.jobs, row.hit_ceiling);
    ++reused;
  }
  if (reused > 0) return 1;

  if (!baseline_dir.empty()) {
    const int regressions = check_against_baseline(baseline_dir, rows);
    if (regressions > 0) {
      std::fprintf(stderr, "load gate: %d regression(s) beyond %.0f%%\n",
                   regressions, 100.0 * kLoadRegressionTolerance);
      return 1;
    }
    std::fprintf(stderr, "load gate: ok\n");
  }
  write_load_json(out_dir + "/BENCH_load.json", capacity, rows);
  return 0;
}
