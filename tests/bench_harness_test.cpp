// Tests for the paper benches' shared harness: every method's gap series,
// QROSS through QrossTuner::tune, and the inputs that key qross_cache/.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <string>
#include <utility>

#include "harness/experiments.hpp"
#include "problems/tsp/generators.hpp"
#include "problems/tsp/heuristics.hpp"
#include "solvers/digital_annealer.hpp"

namespace qross::bench {
namespace {

constexpr Method kMethods[] = {Method::kQross, Method::kTpe, Method::kBo,
                               Method::kRandom};

/// The committed tuner's surrogate with the bench's DA solve options.
core::QrossTuner golden_tuner() {
  std::ifstream file(std::string(QROSS_TEST_DATA_DIR) + "/golden_tuner.txt");
  return core::QrossTuner(core::QrossTuner::load(file).surrogate(),
                          make_solve_options(SolverKind::kDa));
}

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.trials = 3;
  config.infeasible_gap = 5.0;  // above any gap a feasible tour reaches here
  return config;
}

TEST(BenchHarness, EverySeriesIsMonotoneAndInfeasibleUntilTheFirstFeasible) {
  const core::QrossTuner tuner = golden_tuner();
  const ExperimentConfig config = tiny_config();
  const auto instance = tsp::generate_uniform(10, 0xbe4c);
  // Seed 0x5eed gives random search, and seed 2 QROSS, an infeasible start.
  for (const Method method : kMethods) {
    for (const std::uint64_t seed : {0x5eedu, 2u}) {
      const auto gaps = run_method_on_instance(method, instance, &tuner,
                                               SolverKind::kDa, config, seed);
      const std::string label = method_label(method) + " seed " +
                                std::to_string(seed);
      ASSERT_EQ(gaps.size(), config.trials) << label;
      const auto first_feasible =
          std::find_if(gaps.begin(), gaps.end(), [&](double gap) {
            return gap != config.infeasible_gap;
          });
      for (auto it = first_feasible; it != gaps.end(); ++it) {
        EXPECT_LT(*it, config.infeasible_gap) << label;
        EXPECT_GE(*it, 0.0) << label;
      }
      for (std::size_t t = 1; t < gaps.size(); ++t) {
        EXPECT_LE(gaps[t], gaps[t - 1]) << label << " trial " << t;
      }
    }
  }
}

TEST(BenchHarness, NoFeasibleTrialReadsInfeasibleGapThroughout) {
  // At A ~ 1e-3 the constraint penalty is negligible next to the distances
  // (mean 25), so no batch is ever feasible.
  const core::QrossTuner tuner = golden_tuner();
  ExperimentConfig config = tiny_config();
  config.a_min = 1e-3;
  config.a_max = 2e-3;
  const auto instance = tsp::generate_uniform(10, 0xbe4c);
  for (const Method method : kMethods) {
    const auto gaps = run_method_on_instance(method, instance, &tuner,
                                             SolverKind::kDa, config, 0x5eed);
    ASSERT_EQ(gaps.size(), config.trials) << method_label(method);
    for (const double gap : gaps) {
      EXPECT_EQ(gap, config.infeasible_gap) << method_label(method);
    }
  }
}

TEST(BenchHarness, QrossSeriesIsTheFacadeTrajectory) {
  const core::QrossTuner tuner = golden_tuner();
  const ExperimentConfig config = tiny_config();
  const auto instance = tsp::generate_uniform(10, 0xbe4c);
  const double reference = tsp::reference_solution(instance).length;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto gaps = run_method_on_instance(
        Method::kQross, instance, &tuner, SolverKind::kDa, config, seed);

    core::TuneOptions options;
    options.trials = config.trials;
    options.a_min = config.a_min;
    options.a_max = config.a_max;
    options.seed = seed;
    const core::TuneOutcome outcome =
        tuner.tune(instance, make_solver(SolverKind::kDa), options);
    ASSERT_EQ(gaps.size(), outcome.trials.size());
    for (std::size_t t = 0; t < gaps.size(); ++t) {
      const double best = outcome.trials[t].best_length_so_far;
      const double expected = std::isfinite(best)
                                  ? std::max(best / reference - 1.0, 0.0)
                                  : config.infeasible_gap;
      EXPECT_EQ(gaps[t], expected) << "seed " << seed << " trial " << t;
    }
  }
}

TEST(BenchHarness, CacheKeyNamesEveryInput) {
  struct Inputs {
    solvers::SolveOptions options = make_solve_options(SolverKind::kDa);
    ExperimentConfig config;
    core::ComposedStrategy::Config strategy;
  };
  const auto solver = make_solver(SolverKind::kDa);
  const auto digest = [&](const Inputs& in) {
    return inputs_digest(*solver, in.options, in.config, in.strategy);
  };
  const std::pair<const char*, void (*)(Inputs&)> changes[] = {
      {"num_replicas", [](Inputs& in) { in.options.num_replicas += 1; }},
      {"num_sweeps", [](Inputs& in) { in.options.num_sweeps += 1; }},
      {"solve seed", [](Inputs& in) { in.options.seed += 1; }},
      {"train_instances", [](Inputs& in) { in.config.train_instances += 1; }},
      {"test_instances", [](Inputs& in) { in.config.test_instances += 1; }},
      {"min_cities", [](Inputs& in) { in.config.min_cities += 1; }},
      {"max_cities", [](Inputs& in) { in.config.max_cities += 1; }},
      {"dataset_seed", [](Inputs& in) { in.config.dataset_seed += 1; }},
      {"a_min", [](Inputs& in) { in.config.a_min += 1.0; }},
      {"a_max", [](Inputs& in) { in.config.a_max += 1.0; }},
      {"trials", [](Inputs& in) { in.config.trials += 1; }},
      {"infeasible_gap", [](Inputs& in) { in.config.infeasible_gap += 1.0; }},
      {"fast", [](Inputs& in) { in.config.fast = true; }},
      {"sweep.slope_points",
       [](Inputs& in) { in.config.sweep.slope_points += 1; }},
      {"sweep.plateau_points",
       [](Inputs& in) { in.config.sweep.plateau_points += 1; }},
      {"sweep.initial_guess_factor",
       [](Inputs& in) { in.config.sweep.initial_guess_factor += 1.0; }},
      {"sweep.a_min", [](Inputs& in) { in.config.sweep.a_min += 1.0; }},
      {"sweep.a_max", [](Inputs& in) { in.config.sweep.a_max += 1.0; }},
      {"sweep.max_bound_steps",
       [](Inputs& in) { in.config.sweep.max_bound_steps += 1; }},
      {"sweep.bisection_steps",
       [](Inputs& in) { in.config.sweep.bisection_steps += 1; }},
      {"pbs_targets", [](Inputs& in) { in.strategy.pbs_targets[1] += 0.1; }},
      {"pbs_targets size",
       [](Inputs& in) { in.strategy.pbs_targets.push_back(0.5); }},
      {"min_fitness.panels",
       [](Inputs& in) { in.strategy.min_fitness.panels += 1; }},
      {"min_fitness.tail_sigmas",
       [](Inputs& in) { in.strategy.min_fitness.tail_sigmas += 1.0; }},
      {"min_fitness.pf_floor",
       [](Inputs& in) { in.strategy.min_fitness.pf_floor *= 2.0; }},
      {"min_fitness.risk_aversion",
       [](Inputs& in) { in.strategy.min_fitness.risk_aversion += 1.0; }},
      {"ofs.epsilon", [](Inputs& in) { in.strategy.ofs.epsilon *= 2.0; }},
      {"ofs.min_history", [](Inputs& in) { in.strategy.ofs.min_history += 1; }},
  };
  std::set<std::uint64_t> seen{digest(Inputs{})};
  for (const auto& [input, change] : changes) {
    Inputs in;
    change(in);
    EXPECT_TRUE(seen.insert(digest(in)).second)
        << input << " left the key as is";
  }

  const Inputs base;
  solvers::DaParams params;
  params.final_acceptance *= 2.0;
  EXPECT_TRUE(seen.insert(inputs_digest(solvers::DigitalAnnealer(params),
                                        base.options, base.config,
                                        base.strategy))
                  .second)
      << "the solver's config_digest left the key as is";
  EXPECT_TRUE(seen.insert(inputs_digest(*solver, base.options, base.config,
                                        base.strategy, kHarnessRevision + 1))
                  .second)
      << "the harness revision left the key as is";

  // The key each bench file carries: per solver kind and per config.
  ExperimentConfig fast;
  fast.fast = true;
  EXPECT_NE(inputs_key(SolverKind::kDa, base.config),
            inputs_key(SolverKind::kQbsolv, base.config));
  EXPECT_NE(inputs_key(SolverKind::kDa, base.config),
            inputs_key(SolverKind::kDa, fast));
  EXPECT_EQ(inputs_key(SolverKind::kDa, base.config),
            inputs_key(SolverKind::kDa, ExperimentConfig{}));
}

}  // namespace
}  // namespace qross::bench
