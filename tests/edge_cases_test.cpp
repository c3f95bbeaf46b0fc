// Edge cases and failure injection across modules: degenerate instances,
// hostile solvers, empty batches, and strategy fallbacks.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "problems/tsp/exact.hpp"
#include "problems/tsp/formulation.hpp"
#include "problems/tsp/generators.hpp"
#include "problems/tsp/heuristics.hpp"
#include "problems/tsp/preprocess.hpp"
#include "qross/min_fitness.hpp"
#include "qross/session.hpp"
#include "qross/strategies.hpp"
#include "solvers/analog_noise.hpp"
#include "solvers/batch_runner.hpp"
#include "solvers/qbsolv.hpp"
#include "solvers/simulated_annealer.hpp"
#include "surrogate/dataset.hpp"
#include "surrogate/features.hpp"
#include "surrogate/pipeline.hpp"

namespace qross {
namespace {

// --- degenerate TSP sizes ----------------------------------------------------

TEST(TinyTsp, SingleCity) {
  const tsp::TspInstance inst("one", {{3.0, 4.0}});
  EXPECT_DOUBLE_EQ(inst.tour_length(tsp::Tour{0}), 0.0);
  const auto problem = tsp::build_tsp_problem(inst);
  EXPECT_EQ(problem.num_vars(), 1u);
  // The only feasible assignment is x = {1}.
  EXPECT_TRUE(problem.is_feasible(std::vector<std::uint8_t>{1}));
  EXPECT_FALSE(problem.is_feasible(std::vector<std::uint8_t>{0}));
}

TEST(TinyTsp, TwoCities) {
  const tsp::TspInstance inst("two", {{0.0, 0.0}, {5.0, 0.0}});
  const auto problem = tsp::build_tsp_problem(inst);
  const auto x = tsp::encode_tour(inst, tsp::Tour{1, 0});
  EXPECT_TRUE(problem.is_feasible(x));
  EXPECT_DOUBLE_EQ(problem.objective(x), 10.0);  // out and back
}

TEST(TinyTsp, ThreeCitiesAllToursEqual) {
  // With 3 cities every tour is a rotation/reflection of the same triangle.
  const tsp::TspInstance inst("tri", {{0, 0}, {1, 0}, {0, 1}});
  Rng rng(1);
  const double expected = inst.tour_length(tsp::Tour{0, 1, 2});
  for (int rep = 0; rep < 6; ++rep) {
    EXPECT_DOUBLE_EQ(inst.tour_length(rng.permutation(3)), expected);
  }
}

TEST(TinyTsp, MvodmOnDegenerateSizes) {
  // Must not crash or produce NaN on 1- and 2-city instances.
  const tsp::TspInstance one("one", {{0.0, 0.0}});
  const auto r1 = tsp::mvodm_preprocess(one);
  EXPECT_EQ(r1.shifted.num_cities(), 1u);
  const tsp::TspInstance two("two", {{0.0, 0.0}, {1.0, 1.0}});
  const auto r2 = tsp::mvodm_preprocess(two);
  EXPECT_TRUE(std::isfinite(r2.shifted.distance(0, 1)));
}

TEST(TinyTsp, IdenticalCities) {
  // Duplicate coordinates give zero distances; nothing should divide by 0.
  const tsp::TspInstance inst("dup", {{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(inst.mean_distance(), 0.0);
  EXPECT_DOUBLE_EQ(inst.min_positive_distance(), 0.0);
  const auto features = surrogate::extract_features(inst);
  for (double f : features) EXPECT_TRUE(std::isfinite(f));
  const auto tour = tsp::solve_held_karp(inst);
  EXPECT_DOUBLE_EQ(tour.length, 0.0);
}

TEST(TinyTsp, CollinearCities) {
  const tsp::TspInstance inst("line", {{0, 0}, {1, 0}, {2, 0}, {3, 0}});
  const auto opt = tsp::solve_held_karp(inst);
  EXPECT_DOUBLE_EQ(opt.length, 6.0);  // sweep right and return
}

// --- hostile solvers ----------------------------------------------------------

/// Always returns the all-zeros assignment (infeasible for TSP).
class AlwaysInfeasibleSolver final : public solvers::QuboSolver {
 public:
  std::string name() const override { return "always_infeasible"; }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const solvers::SolveOptions& options) const override {
    qubo::SolveBatch batch;
    for (std::size_t r = 0; r < options.num_replicas; ++r) {
      qubo::SolveResult result;
      result.assignment.assign(model.num_vars(), 0);
      result.qubo_energy = model.energy(result.assignment);
      batch.results.push_back(std::move(result));
    }
    return batch;
  }
};

TEST(HostileSolver, BatchStatsStayWellDefined) {
  const auto inst = tsp::generate_uniform(5, 1);
  const auto problem = tsp::build_tsp_problem(inst);
  solvers::BatchRunner runner(problem,
                              std::make_shared<AlwaysInfeasibleSolver>(),
                              solvers::SolveOptions{.num_replicas = 4});
  const auto sample = runner.run(10.0);
  EXPECT_DOUBLE_EQ(sample.stats.pf, 0.0);
  EXPECT_TRUE(std::isinf(sample.stats.min_fitness));
  EXPECT_DOUBLE_EQ(sample.stats.energy_avg, 0.0);  // objective of empty tours
  EXPECT_TRUE(std::isinf(runner.best_fitness()));
}

TEST(HostileSolver, SessionLoopSurvivesAllInfeasible) {
  const auto inst = tsp::generate_uniform(5, 2);
  const auto problem = tsp::build_tsp_problem(inst);
  solvers::BatchRunner runner(problem,
                              std::make_shared<AlwaysInfeasibleSolver>(),
                              solvers::SolveOptions{.num_replicas = 4});
  const auto result =
      core::run_tuning_loop(runner, 5, [] { return 20.0; });
  for (double best : result.best_fitness) EXPECT_TRUE(std::isinf(best));
}

TEST(HostileSolver, OfsExploresWithoutEverSeeingFeasible) {
  core::OnlineFittingStrategy ofs(3);
  core::StrategyContext context;
  context.a_min = 1.0;
  context.a_max = 100.0;
  // Feed it 10 observations with Pf == 0 everywhere.
  for (int trial = 0; trial < 10; ++trial) {
    const double a = ofs.propose(context);
    EXPECT_GE(a, context.a_min);
    EXPECT_LE(a, context.a_max);
    solvers::SolverSample sample;
    sample.relaxation_parameter = a;
    sample.stats.pf = 0.0;
    ofs.observe(sample);
  }
  // With an all-zero history the strategy must keep pushing A upward.
  const double final_proposal = ofs.propose(context);
  EXPECT_GE(final_proposal, 1.0);
  EXPECT_LE(final_proposal, 100.0);
}

TEST(HostileSolver, SweepHandlesAllInfeasibleSolver) {
  const auto inst = tsp::generate_uniform(5, 3);
  const auto problem = tsp::build_tsp_problem(inst);
  solvers::BatchRunner runner(problem,
                              std::make_shared<AlwaysInfeasibleSolver>(),
                              solvers::SolveOptions{.num_replicas = 4});
  surrogate::SweepConfig config;
  config.slope_points = 3;
  config.plateau_points = 1;
  config.max_bound_steps = 6;
  const auto samples = surrogate::sweep_instance(runner, 10.0, config);
  EXPECT_FALSE(samples.empty());
  for (const auto& s : samples) EXPECT_DOUBLE_EQ(s.stats.pf, 0.0);
}

// --- analog noise corner cases ---------------------------------------------------

TEST(AnalogNoiseEdge, MoreNoiseSamplesThanReplicas) {
  solvers::AnalogNoiseParams params;
  params.num_noise_samples = 16;
  const solvers::AnalogNoiseSolver solver(
      std::make_shared<solvers::SimulatedAnnealer>(), params);
  qubo::QuboModel model(3);
  model.add_term(0, 0, -1.0);
  solvers::SolveOptions options;
  options.num_replicas = 3;  // fewer than noise samples
  const auto batch = solver.solve(model, options);
  EXPECT_EQ(batch.size(), 3u);
}

TEST(AnalogNoiseEdge, SingleReplica) {
  const solvers::AnalogNoiseSolver solver(
      std::make_shared<solvers::SimulatedAnnealer>());
  qubo::QuboModel model(2);
  model.add_term(0, 1, 1.0);
  solvers::SolveOptions options;
  options.num_replicas = 1;
  EXPECT_EQ(solver.solve(model, options).size(), 1u);
}

// --- qbsolv corner cases ----------------------------------------------------------

TEST(QbsolvEdge, SubproblemCoveringWholeModel) {
  qubo::QuboModel model(4);
  model.add_term(0, 1, -2.0);
  model.add_term(2, 3, 1.0);
  qubo::Bits x(4, 1);
  const auto sub =
      solvers::clamp_subproblem(qubo::SparseAdjacency(model), {0, 1, 2, 3}, x);
  EXPECT_EQ(sub.num_vars(), 4u);
  EXPECT_DOUBLE_EQ(sub.energy(x), model.energy(x));
}

TEST(QbsolvEdge, EmptySubset) {
  qubo::QuboModel model(3);
  model.add_term(0, 0, 5.0);
  qubo::Bits x{1, 0, 1};
  const auto sub =
      solvers::clamp_subproblem(qubo::SparseAdjacency(model), {}, x);
  EXPECT_EQ(sub.num_vars(), 0u);
  EXPECT_DOUBLE_EQ(sub.offset(), model.energy(x));
}

TEST(QbsolvEdge, SubproblemSizeLargerThanModel) {
  solvers::QbsolvParams params;
  params.subproblem_size = 1000;
  const solvers::Qbsolv solver(params);
  qubo::QuboModel model(4);
  model.add_term(0, 0, -1.0);
  solvers::SolveOptions options;
  options.num_replicas = 2;
  options.num_sweeps = 10;
  const auto batch = solver.solve(model, options);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch.results[batch.best_index()].qubo_energy, -1.0);
}

// --- expected-min-fitness guards ---------------------------------------------------

TEST(MinFitnessEdge, RejectsBadArguments) {
  EXPECT_THROW(core::expected_min_fitness(-0.1, 0.0, 1.0, 8),
               std::invalid_argument);
  EXPECT_THROW(core::expected_min_fitness(0.5, 0.0, -1.0, 8),
               std::invalid_argument);
  EXPECT_THROW(core::expected_min_fitness(0.5, 0.0, 1.0, 0),
               std::invalid_argument);
  core::MinFitnessConfig config;
  config.panels = 3;  // odd panel count invalid for Simpson
  EXPECT_THROW(core::expected_min_fitness(0.5, 0.0, 1.0, 8, config),
               std::invalid_argument);
}

TEST(MinFitnessEdge, NegativeMeanClampsAtZero) {
  // Non-negativity assumption: with mean far below zero, the expectation
  // approaches 0, never a negative value.
  const double value = core::expected_min_fitness(1.0, -50.0, 5.0, 16);
  EXPECT_GE(value, 0.0);
  EXPECT_LT(value, 1.0);
}

TEST(MinFitnessEdge, ZeroStdDegenerateNegativeMean) {
  EXPECT_DOUBLE_EQ(core::expected_min_fitness(0.5, -3.0, 0.0, 4), 0.0);
}

// --- strategy context validation -----------------------------------------------------

TEST(StrategyGuards, InvalidContextRejected) {
  const core::MinimumFitnessStrategy mfs;
  core::StrategyContext context;  // no surrogate
  context.a_min = 1.0;
  context.a_max = 100.0;
  EXPECT_THROW(mfs.propose(context), std::invalid_argument);
  EXPECT_THROW(core::PfBasedStrategy(0.0), std::invalid_argument);
  EXPECT_THROW(core::PfBasedStrategy(1.0), std::invalid_argument);
}

TEST(StrategyGuards, OfsRejectsInvalidBox) {
  core::OnlineFittingStrategy ofs;
  core::StrategyContext context;
  context.a_min = 5.0;
  context.a_max = 5.0;
  EXPECT_THROW(ofs.propose(context), std::invalid_argument);
}

// --- dataset / sweep guards -----------------------------------------------------------

TEST(SweepGuards, RejectsNonPositiveGuess) {
  const auto inst = tsp::generate_uniform(4, 9);
  const auto problem = tsp::build_tsp_problem(inst);
  solvers::BatchRunner runner(problem,
                              std::make_shared<solvers::SimulatedAnnealer>(),
                              solvers::SolveOptions{.num_replicas = 2,
                                                    .num_sweeps = 5});
  surrogate::SweepConfig config;
  EXPECT_THROW(surrogate::find_slope_bounds(runner, 0.0, config),
               std::invalid_argument);
}

TEST(DatasetGuards, LoadRejectsGarbage) {
  std::istringstream empty("");
  EXPECT_THROW(surrogate::Dataset::load_csv(empty), std::invalid_argument);
  std::istringstream bad_row("header\nnot,numbers,at,all\n");
  EXPECT_THROW(surrogate::Dataset::load_csv(bad_row), std::invalid_argument);
}

// --- heuristics on tiny tours -----------------------------------------------------------

TEST(HeuristicsEdge, TwoOptOnTriangleIsIdentity) {
  const tsp::TspInstance inst("tri", {{0, 0}, {1, 0}, {0, 1}});
  const tsp::Tour tour{0, 1, 2};
  EXPECT_EQ(tsp::two_opt(inst, tour), tour);
}

TEST(HeuristicsEdge, OrOptOnSmallTourIsIdentity) {
  const tsp::TspInstance inst("sq", {{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  const tsp::Tour tour{0, 1, 2, 3};
  EXPECT_EQ(tsp::or_opt(inst, tour), tour);
}

TEST(HeuristicsEdge, NearestNeighborSingleCity) {
  const tsp::TspInstance inst("one", {{0.0, 0.0}});
  EXPECT_EQ(tsp::nearest_neighbor_tour(inst, 0), tsp::Tour{0});
}

}  // namespace
}  // namespace qross
