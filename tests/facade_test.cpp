// Tests for the high-level QrossTuner facade and the umbrella header.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "counting_solver.hpp"
#include "qross/qross.hpp"  // umbrella header must compile standalone

namespace qross::core {
namespace {

using qross::testing::CountingSolver;

solvers::SolverPtr fast_solver() {
  solvers::QbsolvParams params;
  params.num_rounds = 1;
  params.subsolver_sweeps = 10;
  return std::make_shared<solvers::Qbsolv>(params);
}

solvers::SolveOptions fast_options() {
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 10;
  options.seed = 3;
  return options;
}

class FacadeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto history = tsp::generate_synthetic_dataset(8, 6, 9, 0xFACADE);
    surrogate::SweepConfig sweep;
    sweep.slope_points = 5;
    sweep.plateau_points = 1;
    sweep.bisection_steps = 5;
    tuner_ = new QrossTuner(
        QrossTuner::fit(history, fast_solver(), fast_options(), sweep));
  }
  static void TearDownTestSuite() {
    delete tuner_;
    tuner_ = nullptr;
  }
  static QrossTuner* tuner_;
};

QrossTuner* FacadeTest::tuner_ = nullptr;

TEST_F(FacadeTest, ProposeWithoutSolverCalls) {
  const auto instance = tsp::generate_uniform(8, 0xAA01);
  const double mfs = tuner_->propose(instance);
  EXPECT_GE(mfs, 1.0);
  EXPECT_LE(mfs, 100.0);
  const double pbs_low = tuner_->propose(instance, 0.2);
  const double pbs_high = tuner_->propose(instance, 0.9);
  EXPECT_LT(pbs_low, pbs_high) << "Pf targets must order the proposals";
}

TEST_F(FacadeTest, TuneReturnsValidTour) {
  const auto instance = tsp::generate_uniform(8, 0xAA02);
  TuneOptions options;
  options.trials = 5;
  const TuneOutcome outcome = tuner_->tune(instance, fast_solver(), options);
  ASSERT_EQ(outcome.trials.size(), 5u);
  ASSERT_TRUE(outcome.feasible());
  EXPECT_TRUE(instance.is_valid_tour(outcome.best_tour));
  EXPECT_NEAR(instance.tour_length(outcome.best_tour), outcome.best_length,
              1e-9);
  // Best-so-far column is non-increasing once feasible.
  double previous = std::numeric_limits<double>::infinity();
  for (const auto& trial : outcome.trials) {
    EXPECT_LE(trial.best_length_so_far, previous + 1e-9);
    previous = trial.best_length_so_far;
  }
}

TEST_F(FacadeTest, TuneQualityIsReasonable) {
  const auto instance = tsp::generate_uniform(9, 0xAA03);
  TuneOptions options;
  options.trials = 6;
  const TuneOutcome outcome = tuner_->tune(instance, fast_solver(), options);
  ASSERT_TRUE(outcome.feasible());
  const double reference = tsp::reference_solution(instance).length;
  EXPECT_LT(outcome.best_length, reference * 1.25)
      << "tuned result more than 25% above the 2-opt reference";
}

TEST_F(FacadeTest, SaveLoadRoundTrip) {
  std::stringstream stream;
  tuner_->save(stream);
  const QrossTuner loaded = QrossTuner::load(stream);
  const auto instance = tsp::generate_uniform(8, 0xAA04);
  EXPECT_DOUBLE_EQ(loaded.propose(instance), tuner_->propose(instance));
}

TEST_F(FacadeTest, DeterministicTuning) {
  const auto instance = tsp::generate_uniform(8, 0xAA05);
  TuneOptions options;
  options.trials = 4;
  options.seed = 99;
  const TuneOutcome a = tuner_->tune(instance, fast_solver(), options);
  const TuneOutcome b = tuner_->tune(instance, fast_solver(), options);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trials[i].relaxation_parameter,
                     b.trials[i].relaxation_parameter);
  }
  EXPECT_EQ(a.best_tour, b.best_tour);
}

TEST_F(FacadeTest, TuneThroughSolveServiceSharesTheCache) {
  const auto instance = tsp::generate_uniform(8, 0xAA06);
  TuneOptions options;
  options.trials = 4;
  options.seed = 11;
  const TuneOutcome direct = tuner_->tune(instance, fast_solver(), options);

  service::SolveService svc;
  options.service = &svc;
  std::atomic<int> invocations{0};
  const auto counted =
      std::make_shared<CountingSolver>(fast_solver(), invocations);

  // Routed trials are bit-identical to direct ones...
  const TuneOutcome first = tuner_->tune(instance, counted, options);
  EXPECT_EQ(invocations.load(), 4);
  ASSERT_EQ(first.trials.size(), direct.trials.size());
  for (std::size_t t = 0; t < first.trials.size(); ++t) {
    EXPECT_DOUBLE_EQ(first.trials[t].relaxation_parameter,
                     direct.trials[t].relaxation_parameter);
    EXPECT_DOUBLE_EQ(first.trials[t].pf, direct.trials[t].pf);
  }
  EXPECT_EQ(first.best_tour, direct.best_tour);

  // ...and a repeated session replays entirely from the result cache.
  const TuneOutcome second = tuner_->tune(instance, counted, options);
  EXPECT_EQ(invocations.load(), 4)
      << "repeated tuning session must not invoke the solver again";
  EXPECT_EQ(second.best_tour, first.best_tour);
  EXPECT_EQ(svc.metrics().cache_hits, 4u);
}

TEST_F(FacadeTest, TuneWarmStartsFromDiskAcrossServiceInstances) {
  const auto instance = tsp::generate_uniform(8, 0xAA07);
  const auto cache_path = std::filesystem::path(::testing::TempDir()) /
                          "qross_facade_warm.qsnap";
  std::filesystem::remove(cache_path);
  std::filesystem::remove(cache_path.string() + ".journal");

  TuneOptions options;
  options.trials = 4;
  options.seed = 17;
  std::atomic<int> invocations{0};
  const auto counted =
      std::make_shared<CountingSolver>(fast_solver(), invocations);

  service::ServiceConfig config;
  config.cache_path = cache_path;
  TuneOutcome first;
  {
    service::SolveService svc(config);
    options.service = &svc;
    first = tuner_->tune(instance, counted, options);
    EXPECT_EQ(invocations.load(), 4);
  }  // service destruction persists the snapshot

  // A fresh service on the same file (stand-in for a fresh process): the
  // PR 2 within-process replay guarantee now holds across runs — the whole
  // session replays from disk with zero solver invocations.
  service::SolveService svc(config);
  EXPECT_EQ(svc.metrics().cache_loaded, 4u);
  options.service = &svc;
  const TuneOutcome second = tuner_->tune(instance, counted, options);
  EXPECT_EQ(invocations.load(), 4)
      << "disk-warm tuning session must not invoke the solver";
  EXPECT_EQ(svc.metrics().cache_hits, 4u);
  EXPECT_EQ(second.best_tour, first.best_tour);
  ASSERT_EQ(second.trials.size(), first.trials.size());
  for (std::size_t t = 0; t < first.trials.size(); ++t) {
    EXPECT_DOUBLE_EQ(second.trials[t].relaxation_parameter,
                     first.trials[t].relaxation_parameter);
    EXPECT_DOUBLE_EQ(second.trials[t].pf, first.trials[t].pf);
  }
  std::filesystem::remove(cache_path);
  std::filesystem::remove(cache_path.string() + ".journal");
}

// --- golden trajectories ------------------------------------------------------

std::string hex_bits(double value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(value)));
  return buf;
}

// Every strategy mode on DA and SA, from the committed tuner file (so
// surrogate training stays out of the pin), against per-trial (A, Pf, best
// length) bits written by the facade's own trial loop before it moved onto
// run_tuning_loop.
TEST(FacadeGolden, TuneTrajectoriesMatchGoldenPin) {
  std::ifstream tuner_file(std::string(QROSS_TEST_DATA_DIR) +
                           "/golden_tuner.txt");
  ASSERT_TRUE(tuner_file.good());
  const QrossTuner tuner = QrossTuner::load(tuner_file);
  const auto instance = tsp::generate_uniform(9, 0x7a11);

  std::vector<std::string> lines;
  for (const auto mode : {TuneStrategyKind::composed, TuneStrategyKind::mfs,
                          TuneStrategyKind::pbs, TuneStrategyKind::ofs}) {
    for (const std::string name : {"da", "sa"}) {
      const solvers::SolverPtr solver =
          name == "da" ? solvers::SolverPtr(
                             std::make_shared<solvers::DigitalAnnealer>())
                       : std::make_shared<solvers::SimulatedAnnealer>();
      TuneOptions options;
      options.trials = 6;
      options.seed = 0x7a11;
      options.mode = mode;
      const TuneOutcome outcome = tuner.tune(instance, solver, options);
      for (std::size_t t = 0; t < outcome.trials.size(); ++t) {
        const auto& trial = outcome.trials[t];
        lines.push_back(std::string(to_string(mode)) + '.' + name + '.' +
                        std::to_string(t) + ' ' +
                        hex_bits(trial.relaxation_parameter) + ' ' +
                        hex_bits(trial.pf) + ' ' +
                        hex_bits(trial.best_length_so_far));
      }
    }
  }

  std::ifstream golden(std::string(QROSS_TEST_DATA_DIR) +
                       "/golden_tune_trajectories.txt");
  ASSERT_TRUE(golden.good());
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]);
  }
}

TEST(FacadeGuards, RejectsUntrainedAndBadInput) {
  EXPECT_THROW(QrossTuner(surrogate::SolverSurrogate{}),
               std::invalid_argument);
  EXPECT_THROW(
      QrossTuner::fit({}, fast_solver(), fast_options()),
      std::invalid_argument);
  std::stringstream garbage("nonsense");
  EXPECT_THROW(QrossTuner::load(garbage), std::invalid_argument);
}

}  // namespace
}  // namespace qross::core
