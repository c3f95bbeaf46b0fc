// Tests for src/solvers: the four solver kernels, the analog-noise
// decorator, and the batch runner.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "qubo/incremental.hpp"
#include "qubo/sparse.hpp"
#include "solvers/analog_noise.hpp"
#include "solvers/batch_runner.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/qbsolv.hpp"
#include "solvers/simulated_annealer.hpp"
#include "solvers/tabu_search.hpp"

namespace qross::solvers {
namespace {

using qubo::Bits;
using qubo::QuboModel;
using qubo::SparseAdjacency;

/// 4-variable model with a unique planted optimum at {1,0,1,0}, energy -21.
QuboModel planted_model() {
  QuboModel m(4);
  m.add_term(0, 0, -10.0);
  m.add_term(2, 2, -10.0);
  m.add_term(1, 1, 5.0);
  m.add_term(3, 3, 5.0);
  m.add_term(0, 2, -1.0);
  m.add_term(1, 3, 8.0);
  m.add_term(0, 1, 2.0);
  return m;
}

/// Exhaustive ground state for small models.
std::pair<Bits, double> brute_minimum(const QuboModel& model) {
  const std::size_t n = model.num_vars();
  Bits best(n, 0);
  double best_energy = std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    Bits x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = (mask >> i) & 1;
    const double e = model.energy(x);
    if (e < best_energy) {
      best_energy = e;
      best = x;
    }
  }
  return {best, best_energy};
}

template <typename Solver>
void expect_finds_planted_optimum() {
  const QuboModel model = planted_model();
  const auto [opt_state, opt_energy] = brute_minimum(model);
  const Solver solver;
  SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 100;
  options.seed = 5;
  const auto batch = solver.solve(model, options);
  ASSERT_EQ(batch.size(), 8u);
  const auto& best = batch.results[batch.best_index()];
  EXPECT_NEAR(best.qubo_energy, opt_energy, 1e-9);
  EXPECT_EQ(best.assignment, opt_state);
  // Reported energies must be consistent with the assignments.
  for (const auto& r : batch.results) {
    EXPECT_NEAR(r.qubo_energy, model.energy(r.assignment), 1e-9);
  }
}

TEST(SimulatedAnnealer, FindsPlantedOptimum) {
  expect_finds_planted_optimum<SimulatedAnnealer>();
}
TEST(DigitalAnnealer, FindsPlantedOptimum) {
  expect_finds_planted_optimum<DigitalAnnealer>();
}
TEST(TabuSearch, FindsPlantedOptimum) {
  expect_finds_planted_optimum<TabuSearch>();
}
TEST(Qbsolv, FindsPlantedOptimum) { expect_finds_planted_optimum<Qbsolv>(); }

template <typename Solver>
void expect_deterministic() {
  const QuboModel model = planted_model();
  const Solver solver;
  SolveOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 30;
  options.seed = 11;
  const auto a = solver.solve(model, options);
  const auto b = solver.solve(model, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.results[i].assignment, b.results[i].assignment);
    EXPECT_DOUBLE_EQ(a.results[i].qubo_energy, b.results[i].qubo_energy);
  }
}

TEST(SimulatedAnnealer, DeterministicUnderSeed) {
  expect_deterministic<SimulatedAnnealer>();
}
TEST(DigitalAnnealer, DeterministicUnderSeed) {
  expect_deterministic<DigitalAnnealer>();
}
TEST(TabuSearch, DeterministicUnderSeed) {
  expect_deterministic<TabuSearch>();
}
TEST(Qbsolv, DeterministicUnderSeed) { expect_deterministic<Qbsolv>(); }

template <typename Solver>
void expect_threads_do_not_change_results() {
  // Replicas share one sparse adjacency and own their state, so the batch
  // must be bit-identical whether run sequentially or across a pool.
  const QuboModel model = planted_model();
  const Solver solver;
  SolveOptions sequential;
  sequential.num_replicas = 8;
  sequential.num_sweeps = 30;
  sequential.seed = 17;
  SolveOptions threaded = sequential;
  threaded.num_threads = 3;
  const auto a = solver.solve(model, sequential);
  const auto b = solver.solve(model, threaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.results[i].assignment, b.results[i].assignment);
    EXPECT_DOUBLE_EQ(a.results[i].qubo_energy, b.results[i].qubo_energy);
  }
}

TEST(SimulatedAnnealer, ThreadPoolPathMatchesSequential) {
  expect_threads_do_not_change_results<SimulatedAnnealer>();
}
TEST(DigitalAnnealer, ThreadPoolPathMatchesSequential) {
  expect_threads_do_not_change_results<DigitalAnnealer>();
}
TEST(TabuSearch, ThreadPoolPathMatchesSequential) {
  expect_threads_do_not_change_results<TabuSearch>();
}
TEST(Qbsolv, ThreadPoolPathMatchesSequential) {
  expect_threads_do_not_change_results<Qbsolv>();
}

TEST(Solvers, DifferentSeedsGiveDifferentBatches) {
  // On a rugged random model, replicas under different master seeds should
  // not be identical.
  Rng rng(1);
  QuboModel model(12);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = i; j < 12; ++j) {
      model.add_term(i, j, rng.uniform(-5.0, 5.0));
    }
  }
  const SimulatedAnnealer solver;
  SolveOptions o1, o2;
  o1.num_replicas = o2.num_replicas = 6;
  o1.num_sweeps = o2.num_sweeps = 5;  // short anneal: diverse endpoints
  o1.seed = 100;
  o2.seed = 200;
  const auto a = solver.solve(model, o1);
  const auto b = solver.solve(model, o2);
  int identical = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.results[i].assignment == b.results[i].assignment) ++identical;
  }
  EXPECT_LT(identical, 6);
}

TEST(Solvers, ZeroVariableModel) {
  const QuboModel model(0);
  for (const SolverPtr& solver :
       {SolverPtr(std::make_shared<SimulatedAnnealer>()),
        SolverPtr(std::make_shared<DigitalAnnealer>()),
        SolverPtr(std::make_shared<TabuSearch>()),
        SolverPtr(std::make_shared<Qbsolv>())}) {
    SolveOptions options;
    options.num_replicas = 3;
    const auto batch = solver->solve(model, options);
    EXPECT_EQ(batch.size(), 3u) << solver->name();
  }
}

TEST(TabuSearch, ImproveNeverWorsens) {
  Rng rng(2);
  QuboModel model(10);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i; j < 10; ++j) {
      model.add_term(i, j, rng.uniform(-3.0, 3.0));
    }
  }
  for (int rep = 0; rep < 10; ++rep) {
    Bits start(10);
    for (auto& b : start) b = rng.bernoulli(0.5) ? 1 : 0;
    const double initial = model.energy(start);
    const auto [state, energy] =
        TabuSearch::improve(model, start, TabuParams{}, 200, rep);
    EXPECT_LE(energy, initial + 1e-9);
    EXPECT_NEAR(energy, model.energy(state), 1e-9);
  }
}

TEST(Qbsolv, ClampSubproblemEnergyIdentity) {
  Rng rng(9);
  QuboModel model(8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i; j < 8; ++j) {
      model.add_term(i, j, rng.uniform(-4.0, 4.0));
    }
  }
  model.set_offset(1.25);
  const std::vector<std::size_t> subset{1, 3, 6};
  Bits x(8);
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  const QuboModel sub = clamp_subproblem(SparseAdjacency(model), subset, x);
  // For every assignment of the subset, energies must agree.
  for (std::size_t mask = 0; mask < 8; ++mask) {
    Bits sub_x(3);
    Bits full_x = x;
    for (std::size_t a = 0; a < 3; ++a) {
      sub_x[a] = (mask >> a) & 1;
      full_x[subset[a]] = sub_x[a];
    }
    EXPECT_NEAR(sub.energy(sub_x), model.energy(full_x), 1e-9);
  }
}

TEST(Qbsolv, ClampRejectsDuplicates) {
  const SparseAdjacency adjacency{QuboModel(4)};
  Bits x(4, 0);
  EXPECT_THROW(clamp_subproblem(adjacency, {1, 1}, x), std::invalid_argument);
  EXPECT_THROW(clamp_subproblem(adjacency, {9}, x), std::invalid_argument);
}

TEST(AnalogNoise, ZeroPrecisionIsExact) {
  const QuboModel model = planted_model();
  const QuboModel noisy = perturb_coefficients(model, 0.0, 3);
  Rng rng(3);
  for (int rep = 0; rep < 16; ++rep) {
    Bits x(4);
    for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_NEAR(noisy.energy(x), model.energy(x), 1e-12);
  }
}

TEST(AnalogNoise, PerturbationPreservesSparsity) {
  QuboModel model(4);
  model.add_term(0, 1, 2.0);
  const QuboModel noisy = perturb_coefficients(model, 0.5, 7);
  // Absent couplers stay absent (no analog error on missing hardware links).
  EXPECT_DOUBLE_EQ(noisy.coefficient(2, 3), 0.0);
  EXPECT_NE(noisy.coefficient(0, 1), 2.0);
}

TEST(AnalogNoise, ReportsTrueEnergies) {
  const QuboModel model = planted_model();
  AnalogNoiseParams params;
  params.relative_precision = 0.3;  // heavy noise
  const AnalogNoiseSolver solver(std::make_shared<SimulatedAnnealer>(), params);
  SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 50;
  options.seed = 21;
  const auto batch = solver.solve(model, options);
  ASSERT_EQ(batch.size(), 8u);
  for (const auto& r : batch.results) {
    EXPECT_NEAR(r.qubo_energy, model.energy(r.assignment), 1e-9)
        << "decorator must report unperturbed energies";
  }
}

TEST(AnalogNoise, NoiseDegradesQualityOnAverage) {
  // With large noise the solver optimises the wrong landscape, so the mean
  // achieved (true) energy should be worse than the noiseless solver's.
  const QuboModel model = planted_model();
  SolveOptions options;
  options.num_replicas = 32;
  options.num_sweeps = 60;
  options.seed = 2;
  const SimulatedAnnealer clean;
  AnalogNoiseParams params;
  params.relative_precision = 0.5;
  params.num_noise_samples = 8;
  const AnalogNoiseSolver noisy(std::make_shared<SimulatedAnnealer>(), params);
  double clean_mean = 0.0, noisy_mean = 0.0;
  for (const auto& r : clean.solve(model, options).results) {
    clean_mean += r.qubo_energy;
  }
  for (const auto& r : noisy.solve(model, options).results) {
    noisy_mean += r.qubo_energy;
  }
  EXPECT_LT(clean_mean, noisy_mean);
}

TEST(AnalogNoise, NameDescribesStack) {
  const AnalogNoiseSolver solver(std::make_shared<DigitalAnnealer>());
  EXPECT_EQ(solver.name(), "da+analog_noise");
}

TEST(BatchRunner, CountsCallsAndTracksBest) {
  qubo::ConstrainedProblem problem(2);
  problem.add_objective_term(0, 0, 5.0);
  problem.add_objective_term(1, 1, 3.0);
  problem.add_constraint({{0, 1}, {1, 1}, 1.0});

  BatchRunner runner(problem, std::make_shared<SimulatedAnnealer>(),
                     SolveOptions{.num_replicas = 4, .num_sweeps = 50, .seed = 1});
  EXPECT_EQ(runner.num_calls(), 0u);
  const auto s1 = runner.run(10.0);
  EXPECT_EQ(runner.num_calls(), 1u);
  EXPECT_EQ(s1.relaxation_parameter, 10.0);
  EXPECT_GT(s1.stats.pf, 0.0);
  // Optimal feasible solution selects x1 (objective 3).
  EXPECT_DOUBLE_EQ(runner.best_fitness(), 3.0);
  runner.run(10.0);
  EXPECT_EQ(runner.num_calls(), 2u);
  EXPECT_EQ(runner.history().size(), 2u);
}

TEST(BatchRunner, RepeatCallsAtSameParameterDiffer) {
  // Repeated submissions must use fresh seeds, like a real annealer.
  Rng rng(44);
  qubo::ConstrainedProblem problem(6);
  for (std::size_t i = 0; i < 6; ++i) {
    problem.add_objective_term(i, i, rng.uniform(-1.0, 1.0));
  }
  problem.add_constraint({{0, 1, 2, 3, 4, 5}, {1, 1, 1, 1, 1, 1}, 3.0});
  BatchRunner runner(problem, std::make_shared<SimulatedAnnealer>(),
                     SolveOptions{.num_replicas = 8, .num_sweeps = 3, .seed = 9});
  const auto a = runner.run(1.0);
  const auto b = runner.run(1.0);
  // Statistically the two short-anneal batches should not be identical.
  EXPECT_TRUE(a.stats.energy_avg != b.stats.energy_avg ||
              a.stats.pf != b.stats.pf);
}

}  // namespace
}  // namespace qross::solvers
