// Tests for src/qross: 1-D optimisers, the expected-minimum-fitness
// integral, sigmoid fitting, and the three parameter-selection strategies.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "problems/tsp/formulation.hpp"
#include "problems/tsp/generators.hpp"
#include "qross/min_fitness.hpp"
#include "qross/optimizers.hpp"
#include "qross/session.hpp"
#include "qross/sigmoid_fit.hpp"
#include "qross/strategies.hpp"
#include "solvers/simulated_annealer.hpp"
#include "surrogate/pipeline.hpp"

namespace qross::core {
namespace {

// --- optimisers -------------------------------------------------------------

TEST(Brent, FindsParabolaMinimum) {
  const auto result = opt::brent_minimize(
      [](double x) { return (x - 1.7) * (x - 1.7) + 3.0; }, -10.0, 10.0);
  EXPECT_NEAR(result.x, 1.7, 1e-6);
  EXPECT_NEAR(result.value, 3.0, 1e-10);
}

TEST(Brent, HandlesBoundaryMinimum) {
  const auto result =
      opt::brent_minimize([](double x) { return x; }, 2.0, 5.0);
  EXPECT_NEAR(result.x, 2.0, 1e-4);
}

TEST(Brent, NonSmoothObjective) {
  const auto result = opt::brent_minimize(
      [](double x) { return std::abs(x - 0.3); }, -2.0, 2.0);
  EXPECT_NEAR(result.x, 0.3, 1e-6);
}

TEST(Bisect, FindsRoot) {
  const double root = opt::bisect_root(
      [](double x) { return x * x * x - 8.0; }, 0.0, 10.0);
  EXPECT_NEAR(root, 2.0, 1e-8);
}

TEST(Bisect, RequiresSignChange) {
  EXPECT_THROW(
      opt::bisect_root([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      std::invalid_argument);
}

TEST(Shgo, EscapesLocalMinimum) {
  // f has a local minimum near x = -1 (value ~1) and the global one near
  // x = 2 (value 0); pure local search from the wrong side gets trapped.
  auto f = [](double x) {
    return std::min((x + 1.0) * (x + 1.0) + 1.0, (x - 2.0) * (x - 2.0));
  };
  const auto result = opt::shgo_minimize(f, -5.0, 5.0);
  EXPECT_NEAR(result.x, 2.0, 1e-4);
  EXPECT_NEAR(result.value, 0.0, 1e-8);
}

TEST(Shgo, OscillatoryObjective) {
  auto f = [](double x) { return std::sin(5.0 * x) + 0.1 * x * x; };
  opt::ShgoConfig config;
  config.num_samples = 128;
  config.num_refinements = 5;
  const auto result = opt::shgo_minimize(f, -4.0, 4.0, config);
  // Global minimum near x ~ -0.3 (sin = -1 branch closest to zero).
  EXPECT_LT(result.value, -0.85);
}

// --- expected minimum fitness --------------------------------------------------

TEST(MinFitness, InfiniteWhenInfeasible) {
  EXPECT_TRUE(std::isinf(expected_min_fitness(0.0, 100.0, 10.0, 32)));
}

TEST(MinFitness, DegenerateStdIsMean) {
  EXPECT_DOUBLE_EQ(expected_min_fitness(0.5, 42.0, 0.0, 32), 42.0);
}

TEST(MinFitness, DecreasesWithPf) {
  // More feasible replicas => lower expected minimum.
  double previous = std::numeric_limits<double>::infinity();
  for (double pf : {0.1, 0.3, 0.6, 1.0}) {
    const double value = expected_min_fitness(pf, 100.0, 10.0, 32);
    EXPECT_LT(value, previous) << "pf=" << pf;
    previous = value;
  }
}

TEST(MinFitness, DecreasesWithBatchSize) {
  const double small = expected_min_fitness(0.5, 100.0, 10.0, 8);
  const double large = expected_min_fitness(0.5, 100.0, 10.0, 128);
  EXPECT_LT(large, small);
}

TEST(MinFitness, SingleSampleIsTruncatedMean) {
  // m = 1: E[min] = E[max(d, 0)] ~ mean when mean >> std.
  const double value = expected_min_fitness(1.0, 200.0, 5.0, 1);
  EXPECT_NEAR(value, 200.0, 0.5);
}

class MinFitnessMcParam
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(MinFitnessMcParam, AnalyticMatchesMonteCarlo) {
  const auto [pf, mean, std] = GetParam();
  const std::size_t batch = 64;  // pf * B >> 1 so both estimators agree
  const double analytic = expected_min_fitness(pf, mean, std, batch);
  const double mc =
      expected_min_fitness_monte_carlo(pf, mean, std, batch, 20000, 9);
  EXPECT_NEAR(analytic, mc, 0.05 * std + 0.002 * mean)
      << "pf=" << pf << " mean=" << mean << " std=" << std;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MinFitnessMcParam,
    ::testing::Values(std::make_tuple(0.25, 100.0, 10.0),
                      std::make_tuple(0.5, 100.0, 10.0),
                      std::make_tuple(1.0, 100.0, 10.0),
                      std::make_tuple(0.5, 50.0, 20.0),
                      std::make_tuple(1.0, 300.0, 3.0)));

// --- sigmoid fitting ------------------------------------------------------------

class SigmoidRecoveryParam
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SigmoidRecoveryParam, RecoversParametersFromCleanData) {
  const auto [theta_s, theta_o] = GetParam();
  const SigmoidParams truth{theta_s, theta_o};
  std::vector<double> a_values, pf_values;
  for (double a = 1.0; a <= 60.0; a += 2.0) {
    a_values.push_back(a);
    pf_values.push_back(truth(a));
  }
  const SigmoidFitResult fit = fit_sigmoid(a_values, pf_values);
  // Compare predicted curves rather than raw parameters (flat data gives
  // parameter slack but curve agreement is what matters).
  for (double a = 2.0; a <= 58.0; a += 4.0) {
    EXPECT_NEAR(fit.params(a), truth(a), 0.02) << "a=" << a;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SigmoidRecoveryParam,
                         ::testing::Values(std::make_pair(0.5, 10.0),
                                           std::make_pair(0.3, 6.0),
                                           std::make_pair(1.5, 45.0),
                                           std::make_pair(0.15, 3.0)));

TEST(SigmoidFit, ToleratesNoise) {
  const SigmoidParams truth{0.4, 10.0};
  Rng rng(3);
  std::vector<double> a_values, pf_values;
  for (double a = 2.0; a <= 60.0; a += 1.5) {
    a_values.push_back(a);
    // Binomial-like noise around the truth (B = 16 solver batch).
    int hits = 0;
    for (int k = 0; k < 16; ++k) hits += rng.bernoulli(truth(a)) ? 1 : 0;
    pf_values.push_back(hits / 16.0);
  }
  const SigmoidFitResult fit = fit_sigmoid(a_values, pf_values);
  EXPECT_NEAR(fit.params.inverse(0.5), truth.inverse(0.5), 2.0);
}

TEST(SigmoidFit, InverseMatchesForward) {
  const SigmoidParams p{0.7, 12.0};
  for (double prob : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(p(p.inverse(prob)), prob, 1e-12);
  }
}

TEST(SigmoidFit, RejectsTooFewPoints) {
  EXPECT_THROW(
      fit_sigmoid(std::vector<double>{1.0}, std::vector<double>{0.5}),
      std::invalid_argument);
}

// --- strategies (against an analytically-trained surrogate) ---------------------

/// Builds a surrogate trained on the analytic solver response used in
/// surrogate_test.cpp, centred at A ~ 20 on the log scale.
struct AnalyticWorld {
  surrogate::SolverSurrogate surrogate;
  std::array<double, surrogate::kNumTspFeatures> features{};
  double anchor = 1.0;
  double mid_log_a = 0.0;  // true sigmoid midpoint in log A

  static constexpr double kSteepness = 3.0;

  double true_pf(double a) const {
    return 1.0 / (1.0 + std::exp(-kSteepness * (std::log(a) - mid_log_a)));
  }
};

AnalyticWorld make_world(std::uint64_t seed) {
  using namespace qross::surrogate;
  AnalyticWorld world;
  Dataset dataset;
  Rng rng(seed);
  for (std::size_t id = 0; id < 10; ++id) {
    const auto inst = tsp::generate_uniform(6 + id % 4, derive_seed(seed, id));
    const PreparedTspInstance prepared(inst);
    const auto features = extract_features(prepared.prepared());
    const double anchor = scale_anchor(features);
    const double mid = std::log(20.0) + 0.05 * (features[0] - 8.0);
    for (std::size_t k = 0; k < 28; ++k) {
      const double a = std::exp(rng.uniform(std::log(1.0), std::log(200.0)));
      DatasetRow row;
      row.instance_id = id;
      row.features = features;
      row.scale_anchor = anchor;
      row.relaxation_parameter = a;
      row.pf =
          1.0 / (1.0 + std::exp(-AnalyticWorld::kSteepness *
                                (std::log(a) - mid)));
      // Energy dips at the transition then grows: a "dipper" shaped Eavg.
      row.energy_avg =
          anchor * (1.0 + 0.15 * std::abs(std::log(a) - mid));
      row.energy_std = anchor * 0.08;
      dataset.rows.push_back(row);
    }
    if (id == 0) {
      world.features = features;
      world.anchor = anchor;
      world.mid_log_a = mid;
    }
  }
  world.surrogate = SolverSurrogate();  // default (full) training budget
  world.surrogate.train(dataset);
  return world;
}

StrategyContext make_context(const AnalyticWorld& world) {
  StrategyContext context;
  context.surrogate = &world.surrogate;
  context.features = world.features;
  context.anchor = world.anchor;
  context.a_min = 1.0;
  context.a_max = 200.0;
  context.batch_size = 16;
  return context;
}

TEST(Mfs, ProposesOnTheSlope) {
  const AnalyticWorld world = make_world(41);
  const StrategyContext context = make_context(world);
  const MinimumFitnessStrategy mfs;
  const double a = mfs.propose(context);
  // The optimal parameter lies on the sigmoid slope (paper hypothesis):
  // 0 < Pf(a) < 1 with room on both sides.
  const double pf = world.true_pf(a);
  EXPECT_GT(pf, 0.02) << "a=" << a;
  EXPECT_LT(pf, 0.999) << "a=" << a;
}

TEST(Mfs, LandscapeHasFiniteDipRegion) {
  const AnalyticWorld world = make_world(42);
  const StrategyContext context = make_context(world);
  const MinimumFitnessStrategy mfs;
  const auto landscape = mfs.landscape(context, 48);
  ASSERT_EQ(landscape.size(), 48u);
  int finite = 0;
  for (const auto& [a, value] : landscape) {
    if (std::isfinite(value)) ++finite;
  }
  EXPECT_GT(finite, 10);
}

TEST(Pbs, HitsRequestedFeasibility) {
  const AnalyticWorld world = make_world(43);
  const StrategyContext context = make_context(world);
  for (double target : {0.2, 0.5, 0.8}) {
    const PfBasedStrategy pbs(target);
    const double a = pbs.propose(context);
    EXPECT_NEAR(world.true_pf(a), target, 0.15)
        << "target=" << target << " proposed A=" << a;
  }
}

TEST(Pbs, MonotoneInTarget) {
  const AnalyticWorld world = make_world(44);
  const StrategyContext context = make_context(world);
  const double a20 = PfBasedStrategy(0.2).propose(context);
  const double a80 = PfBasedStrategy(0.8).propose(context);
  EXPECT_LT(a20, a80);
}

TEST(Ofs, ConvergesOnKnownSigmoid) {
  // OFS against an exact sigmoid oracle: after bound search plus a few
  // samples, its fitted curve should match the oracle's midpoint.
  const SigmoidParams truth{0.5, 12.0};  // midpoint A = 24
  OnlineFittingStrategy ofs(7);
  StrategyContext context;  // OFS ignores the surrogate
  context.a_min = 1.0;
  context.a_max = 200.0;

  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    const double a = ofs.propose(context);
    EXPECT_GE(a, context.a_min);
    EXPECT_LE(a, context.a_max);
    solvers::SolverSample sample;
    sample.relaxation_parameter = a;
    int hits = 0;
    for (int k = 0; k < 32; ++k) hits += rng.bernoulli(truth(a)) ? 1 : 0;
    sample.stats.pf = hits / 32.0;
    sample.stats.batch_size = 32;
    ofs.observe(sample);
  }
  ASSERT_TRUE(ofs.last_fit().has_value());
  EXPECT_NEAR(ofs.last_fit()->params.inverse(0.5), truth.inverse(0.5), 6.0);
}

TEST(Ofs, ProposalsConcentrateOnSlope) {
  const SigmoidParams truth{0.8, 20.0};  // midpoint A = 25, fairly steep
  OnlineFittingStrategy ofs(11);
  StrategyContext context;
  context.a_min = 1.0;
  context.a_max = 200.0;
  Rng rng(6);
  std::vector<double> late_proposals;
  for (int trial = 0; trial < 20; ++trial) {
    const double a = ofs.propose(context);
    if (trial >= 8) late_proposals.push_back(a);
    solvers::SolverSample sample;
    sample.relaxation_parameter = a;
    sample.stats.pf = truth(a);  // noiseless oracle
    ofs.observe(sample);
  }
  // Late proposals should sit in the oracle's slope band.
  for (double a : late_proposals) {
    EXPECT_GT(truth(a), 0.01) << a;
    EXPECT_LT(truth(a), 0.99) << a;
  }
}

TEST(Composed, FollowsPaperSchedule) {
  const AnalyticWorld world = make_world(45);
  const StrategyContext context = make_context(world);
  ComposedStrategy composed(3);

  // Trial 1: MFS; trials 2-3: PBS at 80% / 20%; later: OFS.
  const double a1 = composed.propose(context);
  solvers::SolverSample s1;
  s1.relaxation_parameter = a1;
  s1.stats.pf = world.true_pf(a1);
  composed.observe(s1);

  const double a2 = composed.propose(context);
  solvers::SolverSample s2;
  s2.relaxation_parameter = a2;
  s2.stats.pf = world.true_pf(a2);
  composed.observe(s2);

  const double a3 = composed.propose(context);
  EXPECT_NEAR(world.true_pf(a2), 0.8, 0.2);
  EXPECT_NEAR(world.true_pf(a3), 0.2, 0.2);
  EXPECT_EQ(composed.num_trials(), 3u);
  // All proposals inside the box.
  for (double a : {a1, a2, a3}) {
    EXPECT_GE(a, context.a_min);
    EXPECT_LE(a, context.a_max);
  }
}

// --- session loop -----------------------------------------------------------------

TEST(Session, TracksBestFitnessMonotonically) {
  const auto inst = tsp::generate_uniform(6, 71);
  const surrogate::PreparedTspInstance prepared(inst);
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 150;
  options.seed = 3;
  solvers::BatchRunner runner(prepared.problem(),
                              std::make_shared<solvers::SimulatedAnnealer>(),
                              options);
  Rng rng(8);
  const TuningResult result = run_tuning_loop(
      runner, 6, [&] { return rng.uniform(20.0, 80.0); });
  ASSERT_EQ(result.samples.size(), 6u);
  ASSERT_EQ(result.best_fitness.size(), 6u);
  for (std::size_t i = 1; i < result.best_fitness.size(); ++i) {
    EXPECT_LE(result.best_fitness[i], result.best_fitness[i - 1]);
  }
  EXPECT_EQ(runner.num_calls(), 6u);
}

TEST(Session, ObserverSeesEveryTrial) {
  const auto inst = tsp::generate_uniform(5, 72);
  const surrogate::PreparedTspInstance prepared(inst);
  solvers::SolveOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 60;
  solvers::BatchRunner runner(prepared.problem(),
                              std::make_shared<solvers::SimulatedAnnealer>(),
                              options);
  int observed = 0;
  run_tuning_loop(
      runner, 4, [] { return 30.0; },
      [&](const solvers::SolverSample&) { ++observed; });
  EXPECT_EQ(observed, 4);
}

TEST(Session, StopTokenReturnsCompletedPrefix) {
  const auto inst = tsp::generate_uniform(5, 73);
  const surrogate::PreparedTspInstance prepared(inst);
  solvers::SolveOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 40;
  solvers::BatchRunner runner(prepared.problem(),
                              std::make_shared<solvers::SimulatedAnnealer>(),
                              options);
  const solvers::StopToken stop = solvers::StopToken::create();
  std::size_t observed = 0;
  const TuningResult result = run_tuning_loop(
      runner, 6, [] { return 30.0; },
      [&](const solvers::SolverSample&) {
        if (++observed == 3) stop.request_stop();  // after trial 2 (0-based)
      },
      stop);
  EXPECT_EQ(result.samples.size(), 3u);
  EXPECT_EQ(result.best_fitness.size(), 3u);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(runner.num_calls(), 3u);

  const TuningResult full = run_tuning_loop(runner, 2, [] { return 30.0; });
  EXPECT_FALSE(full.cancelled);
}

}  // namespace
}  // namespace qross::core
