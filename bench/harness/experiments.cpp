#include "harness/experiments.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "problems/tsp/generators.hpp"
#include "problems/tsp/heuristics.hpp"
#include "problems/tsp/testset.hpp"
#include "qross/session.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/qbsolv.hpp"
#include "solvers/simulated_annealer.hpp"
#include "surrogate/pipeline.hpp"
#include "tuning/bayes_opt.hpp"
#include "tuning/random_search.hpp"
#include "tuning/tpe.hpp"

namespace qross::bench {

std::string solver_label(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDa:
      return "da";
    case SolverKind::kSa:
      return "sa";
    case SolverKind::kQbsolv:
      return "qbsolv";
  }
  QROSS_ASSERT_MSG(false, "unknown solver kind");
  return {};
}

std::string method_label(Method method) {
  switch (method) {
    case Method::kQross:
      return "qross";
    case Method::kTpe:
      return "tpe";
    case Method::kBo:
      return "bo";
    case Method::kRandom:
      return "random";
  }
  QROSS_ASSERT_MSG(false, "unknown method");
  return {};
}

ExperimentConfig default_config() {
  ExperimentConfig config;
  if (const char* env = std::getenv("QROSS_FAST");
      env != nullptr && env[0] == '1') {
    config.fast = true;
    config.train_instances = 12;
    config.test_instances = 4;
    config.trials = 8;
    config.sweep.slope_points = 5;
    config.sweep.plateau_points = 1;
  }
  return config;
}

solvers::SolverPtr make_solver(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDa:
      return std::make_shared<solvers::DigitalAnnealer>();
    case SolverKind::kSa:
      return std::make_shared<solvers::SimulatedAnnealer>();
    case SolverKind::kQbsolv: {
      // Weakened relative to the library default so the hybrid keeps a
      // stochastic Pf transition on benchmark-sized instances (the
      // full-strength solver turns Pf into a step function; see EXPERIMENTS.md).
      solvers::QbsolvParams params;
      params.num_rounds = 1;
      params.subsolver_sweeps = 20;
      return std::make_shared<solvers::Qbsolv>(params);
    }
  }
  QROSS_ASSERT_MSG(false, "unknown solver kind");
  return nullptr;
}

solvers::SolveOptions make_solve_options(SolverKind kind, std::uint64_t seed) {
  solvers::SolveOptions options;
  options.seed = seed;
  switch (kind) {
    case SolverKind::kDa:
      options.num_replicas = 16;  // paper uses B = 128 on DA hardware
      options.num_sweeps = 60;
      break;
    case SolverKind::kSa:
      options.num_replicas = 16;
      options.num_sweeps = 200;
      break;
    case SolverKind::kQbsolv:
      options.num_replicas = 8;
      options.num_sweeps = 20;
      break;
  }
  return options;
}

std::vector<tsp::TspInstance> synthetic_train_instances(
    const ExperimentConfig& config) {
  return tsp::generate_synthetic_dataset(config.train_instances,
                                         config.min_cities, config.max_cities,
                                         config.dataset_seed);
}

std::vector<tsp::TspInstance> synthetic_test_instances(
    const ExperimentConfig& config) {
  // Disjoint seed stream from the training split.
  return tsp::generate_synthetic_dataset(
      config.test_instances, config.min_cities, config.max_cities,
      derive_seed(config.dataset_seed, 0x7e57));
}

std::vector<tsp::TspInstance> tsplib_test_instances(
    const ExperimentConfig& config) {
  auto instances = tsp::tsplib_like_testset();
  if (config.fast && instances.size() > 4) {
    instances.erase(instances.begin() + 4, instances.end());
  }
  return instances;
}

std::uint64_t inputs_digest(const solvers::QuboSolver& solver,
                            const solvers::SolveOptions& options,
                            const ExperimentConfig& config,
                            const core::ComposedStrategy::Config& strategy,
                            std::uint64_t revision) {
  Hash64 h;
  h.mix(revision).mix(solver.config_digest());
  h.mix(std::uint64_t{options.num_replicas})
      .mix(std::uint64_t{options.num_sweeps})
      .mix(options.seed);
  h.mix(std::uint64_t{config.train_instances})
      .mix(std::uint64_t{config.test_instances})
      .mix(std::uint64_t{config.min_cities})
      .mix(std::uint64_t{config.max_cities})
      .mix(config.dataset_seed)
      .mix(config.a_min)
      .mix(config.a_max)
      .mix(std::uint64_t{config.trials})
      .mix(config.infeasible_gap)
      .mix(std::uint64_t{config.fast});
  const surrogate::SweepConfig& sweep = config.sweep;
  h.mix(std::uint64_t{sweep.slope_points})
      .mix(std::uint64_t{sweep.plateau_points})
      .mix(sweep.initial_guess_factor)
      .mix(sweep.a_min)
      .mix(sweep.a_max)
      .mix(std::uint64_t{sweep.max_bound_steps})
      .mix(std::uint64_t{sweep.bisection_steps});
  h.mix(std::uint64_t{strategy.pbs_targets.size()});
  for (const double target : strategy.pbs_targets) h.mix(target);
  h.mix(std::uint64_t{strategy.min_fitness.panels})
      .mix(strategy.min_fitness.tail_sigmas)
      .mix(strategy.min_fitness.pf_floor)
      .mix(strategy.min_fitness.risk_aversion)
      .mix(strategy.ofs.epsilon)
      .mix(std::uint64_t{strategy.ofs.min_history});
  return h.digest();
}

std::string inputs_key(SolverKind kind, const ExperimentConfig& config) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    inputs_digest(*make_solver(kind), make_solve_options(kind),
                                  config, core::ComposedStrategy::Config{})));
  return hex;
}

surrogate::Dataset get_or_build_dataset(const Cache& cache, SolverKind kind,
                                        const ExperimentConfig& config) {
  const std::string key =
      "dataset_" + solver_label(kind) + "_" + inputs_key(kind, config) + ".csv";
  if (const auto cached = cache.read(key); cached.has_value()) {
    std::istringstream ss(*cached);
    return surrogate::Dataset::load_csv(ss);
  }
  std::fprintf(stderr, "[bench] building %s training dataset (%zu instances)\n",
               solver_label(kind).c_str(), config.train_instances);
  const auto instances = synthetic_train_instances(config);
  const auto dataset =
      surrogate::build_dataset(instances, make_solver(kind),
                               make_solve_options(kind, 0xDA7A), config.sweep,
                               /*verbose=*/true);
  std::ostringstream out;
  dataset.save_csv(out);
  cache.write(key, out.str());
  return dataset;
}

surrogate::SolverSurrogate get_or_train_surrogate(
    const Cache& cache, SolverKind kind, const ExperimentConfig& config) {
  const std::string key = "surrogate_" + solver_label(kind) + "_" +
                          inputs_key(kind, config) + ".txt";
  if (const auto cached = cache.read(key); cached.has_value()) {
    std::istringstream ss(*cached);
    return surrogate::SolverSurrogate::load(ss);
  }
  const auto dataset = get_or_build_dataset(cache, kind, config);
  std::fprintf(stderr, "[bench] training %s surrogate on %zu rows\n",
               solver_label(kind).c_str(), dataset.rows.size());
  surrogate::SolverSurrogate surrogate;
  surrogate.train(dataset);
  std::ostringstream out;
  surrogate.save(out);
  cache.write(key, out.str());
  return surrogate;
}

std::vector<double> run_method_on_instance(
    Method method, const tsp::TspInstance& instance,
    const core::QrossTuner* tuner, SolverKind solver_kind,
    const ExperimentConfig& config, std::uint64_t seed) {
  const double reference = tsp::reference_solution(instance).length;
  QROSS_ASSERT(reference > 0.0);
  // One gap definition for every method, the facade's: the best feasible
  // tour so far, decoded and re-scored on the original matrix (appendix E).
  std::vector<double> gaps;
  const auto push_gap = [&](double best_length) {
    gaps.push_back(std::isfinite(best_length)
                       ? std::max(best_length / reference - 1.0, 0.0)
                       : config.infeasible_gap);
  };

  if (method == Method::kQross) {
    QROSS_REQUIRE(tuner != nullptr, "QROSS needs a tuner");
    core::TuneOptions options;
    options.trials = config.trials;
    options.a_min = config.a_min;
    options.a_max = config.a_max;
    options.seed = seed;
    for (const auto& trial :
         tuner->tune(instance, make_solver(solver_kind), options).trials) {
      push_gap(trial.best_length_so_far);
    }
    return gaps;
  }

  std::unique_ptr<tuning::Tuner> baseline;
  switch (method) {
    case Method::kTpe:
      baseline = std::make_unique<tuning::TpeTuner>(config.a_min, config.a_max,
                                                    derive_seed(seed, 2));
      break;
    case Method::kBo:
      baseline = std::make_unique<tuning::BayesOptTuner>(
          config.a_min, config.a_max, derive_seed(seed, 3));
      break;
    case Method::kRandom:
      baseline = std::make_unique<tuning::RandomSearch>(
          config.a_min, config.a_max, derive_seed(seed, 4));
      break;
    default:
      QROSS_ASSERT_MSG(false, "unhandled method");
  }
  const surrogate::PreparedTspInstance prepared(instance);
  // Baselines see the batch's best fitness, or this finite stand-in when
  // the whole batch was infeasible (≈ "twice a random-ish tour").
  const double infeasible_value =
      4.0 * surrogate::scale_anchor(
                surrogate::extract_features(prepared.prepared()));
  solvers::BatchRunner runner(
      prepared.problem(), make_solver(solver_kind),
      make_solve_options(solver_kind, derive_seed(seed, 0xca11)));
  const core::TuningResult result = core::run_tuning_loop(
      runner, config.trials, [&] { return baseline->propose(); },
      [&](const solvers::SolverSample& s) {
        baseline->observe({s.relaxation_parameter,
                           tuning::finite_objective(s.stats.min_fitness,
                                                    infeasible_value)});
      });
  double best = std::numeric_limits<double>::infinity();
  for (const auto& sample : result.samples) {
    if (sample.stats.has_feasible()) {
      best = std::min(best,
                      prepared.original_tour_length(*sample.stats.best_feasible));
    }
    push_gap(best);
  }
  return gaps;
}

std::string GapSeries::to_csv() const {
  std::ostringstream out;
  out.precision(17);
  out << "trial,mean_gap,ci95\n";
  for (std::size_t t = 0; t < mean.size(); ++t) {
    out << (t + 1) << ',' << mean[t] << ',' << ci95[t] << "\n";
  }
  return out.str();
}

GapSeries GapSeries::from_csv(const std::string& text) {
  GapSeries series;
  std::istringstream ss(text);
  std::string line;
  QROSS_REQUIRE(static_cast<bool>(std::getline(ss, line)), "empty series CSV");
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    std::size_t trial = 0;
    double mean = 0.0, ci = 0.0;
    char comma = 0;
    std::istringstream row(line);
    QROSS_REQUIRE(
        static_cast<bool>(row >> trial >> comma >> mean >> comma >> ci),
        "bad series row");
    series.mean.push_back(mean);
    series.ci95.push_back(ci);
  }
  return series;
}

GapSeries get_or_run_comparison(const Cache& cache, Method method,
                                SolverKind surrogate_kind,
                                SolverKind solver_kind,
                                const std::string& instance_set,
                                const ExperimentConfig& config) {
  std::string key = "traj_" + method_label(method) + "_" +
                    solver_label(solver_kind) + "_" + instance_set + "_" +
                    inputs_key(solver_kind, config);
  if (method == Method::kQross && surrogate_kind != solver_kind) {
    key += "_xsurr-" + solver_label(surrogate_kind) + "_" +
           inputs_key(surrogate_kind, config);
  }
  key += ".csv";
  if (const auto cached = cache.read(key); cached.has_value()) {
    return GapSeries::from_csv(*cached);
  }

  std::vector<tsp::TspInstance> instances;
  if (instance_set == kSyntheticTestSet) {
    instances = synthetic_test_instances(config);
  } else if (instance_set == kTsplibTestSet) {
    instances = tsplib_test_instances(config);
  } else {
    QROSS_REQUIRE(false, "unknown instance set: " + instance_set);
  }

  std::optional<core::QrossTuner> tuner;
  if (method == Method::kQross) {
    tuner.emplace(get_or_train_surrogate(cache, surrogate_kind, config),
                  make_solve_options(solver_kind));
  }

  std::fprintf(stderr, "[bench] running %s on %s/%s (%zu instances x %zu trials)\n",
               method_label(method).c_str(), solver_label(solver_kind).c_str(),
               instance_set.c_str(), instances.size(), config.trials);

  std::vector<std::vector<double>> per_instance;
  per_instance.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const std::uint64_t seed =
        derive_seed(0xbe7c, (static_cast<std::uint64_t>(method) << 32) |
                                (static_cast<std::uint64_t>(solver_kind) << 16) |
                                i);
    per_instance.push_back(run_method_on_instance(
        method, instances[i], tuner ? &*tuner : nullptr, solver_kind, config,
        seed));
  }

  GapSeries series;
  series.mean.resize(config.trials, 0.0);
  series.ci95.resize(config.trials, 0.0);
  const double n = static_cast<double>(per_instance.size());
  for (std::size_t t = 0; t < config.trials; ++t) {
    double sum = 0.0;
    for (const auto& gaps : per_instance) sum += gaps[t];
    const double mean = sum / n;
    double var = 0.0;
    for (const auto& gaps : per_instance) {
      var += (gaps[t] - mean) * (gaps[t] - mean);
    }
    var = per_instance.size() > 1 ? var / (n - 1.0) : 0.0;
    series.mean[t] = mean;
    series.ci95[t] = 1.96 * std::sqrt(var / n);
  }
  cache.write(key, series.to_csv());
  return series;
}

}  // namespace qross::bench
