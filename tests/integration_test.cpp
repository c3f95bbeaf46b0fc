// End-to-end integration tests: dataset generation with a real solver,
// surrogate training, and the composed QROSS strategy against baselines on
// a miniature version of the paper's §5.1 experiment.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "problems/tsp/generators.hpp"
#include "problems/tsp/heuristics.hpp"
#include "qross/facade.hpp"
#include "qross/session.hpp"
#include "qross/strategies.hpp"
#include "solvers/qbsolv.hpp"
#include "surrogate/dataset.hpp"
#include "surrogate/model.hpp"
#include "surrogate/pipeline.hpp"
#include "tuning/random_search.hpp"

namespace qross {
namespace {

/// Shared fixture: a small Qbsolv-backed world (Qbsolv is the fastest of
/// the solver kernels, keeping this integration test snappy).
class QrossPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A deliberately weakened Qbsolv: the full-strength hybrid solves these
    // tiny instances so reliably that the Pf transition collapses to a step,
    // which starves the dataset of slope samples.  Short budgets restore the
    // stochastic texture the surrogate learns from.
    solvers::QbsolvParams params;
    params.num_rounds = 1;
    params.subsolver_sweeps = 10;
    solver_ = std::make_shared<solvers::Qbsolv>(params);
    instances_ = tsp::generate_synthetic_dataset(8, 6, 9, 0xfeed);

    solvers::SolveOptions options;
    options.num_replicas = 8;
    options.num_sweeps = 10;
    options.seed = 17;

    surrogate::SweepConfig sweep;
    sweep.slope_points = 6;
    sweep.plateau_points = 2;
    sweep.bisection_steps = 6;
    dataset_ = new surrogate::Dataset(
        surrogate::build_dataset(instances_, solver_, options, sweep));

    surrogate::SurrogateConfig config;
    config.pf_training.max_epochs = 150;
    config.energy_training.max_epochs = 150;
    surrogate_ = new surrogate::SolverSurrogate(config);
    surrogate_->train(*dataset_);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete surrogate_;
    surrogate_ = nullptr;
  }

  static solvers::SolverPtr solver_;
  static std::vector<tsp::TspInstance> instances_;
  static surrogate::Dataset* dataset_;
  static surrogate::SolverSurrogate* surrogate_;
};

solvers::SolverPtr QrossPipeline::solver_;
std::vector<tsp::TspInstance> QrossPipeline::instances_;
surrogate::Dataset* QrossPipeline::dataset_ = nullptr;
surrogate::SolverSurrogate* QrossPipeline::surrogate_ = nullptr;

TEST_F(QrossPipeline, DatasetCoversSlopeForEveryInstance) {
  std::vector<int> slope_samples(instances_.size(), 0);
  for (const auto& row : dataset_->rows) {
    if (row.pf > 0.0 && row.pf < 1.0) ++slope_samples[row.instance_id];
  }
  int covered = 0;
  for (int c : slope_samples) {
    if (c >= 1) ++covered;
  }
  // The sigmoid slope must be sampled for most training instances; very
  // sharp per-instance transitions can evade even the bisection refinement.
  EXPECT_GE(covered, static_cast<int>(instances_.size()) / 2);
}

TEST_F(QrossPipeline, SurrogatePfIsDiscriminative) {
  // On training instances, predicted Pf at the left plateau should be far
  // below predicted Pf at the right plateau.
  double low_sum = 0.0, high_sum = 0.0;
  int count = 0;
  std::set<std::size_t> seen;
  for (const auto& row : dataset_->rows) {
    if (!seen.insert(row.instance_id).second) continue;
    const auto low = surrogate_->predict(row.features, row.scale_anchor, 2.0);
    const auto high = surrogate_->predict(row.features, row.scale_anchor, 90.0);
    low_sum += low.pf;
    high_sum += high.pf;
    ++count;
  }
  EXPECT_LT(low_sum / count, 0.35);
  EXPECT_GT(high_sum / count, 0.65);
}

TEST_F(QrossPipeline, OfflineProposalYieldsFeasibleFirstTrial) {
  // The paper's one-call recipe: "if obtaining a feasible solution in one
  // trial is of primary importance ... p = 90% would be a reasonable
  // choice" (§3.4.2).  PBS at 0.9, with zero solver calls, should produce a
  // feasible batch on a fresh instance most of the time.
  int feasible = 0;
  const int num_tests = 4;
  for (int i = 0; i < num_tests; ++i) {
    const auto inst = tsp::generate_uniform(8, 5000 + i);
    const surrogate::PreparedTspInstance prepared(inst);
    const auto features = surrogate::extract_features(prepared.prepared());

    core::StrategyContext context;
    context.surrogate = surrogate_;
    context.features = features;
    context.anchor = surrogate::scale_anchor(features);
    context.a_min = 1.0;
    context.a_max = 100.0;
    context.batch_size = 8;

    const core::PfBasedStrategy pbs(0.9);
    const double a = pbs.propose(context);

    solvers::SolveOptions options;
    options.num_replicas = 8;
    options.num_sweeps = 30;
    options.seed = 100 + i;
    solvers::BatchRunner runner(prepared.problem(), solver_, options);
    const auto sample = runner.run(a);
    if (sample.stats.has_feasible()) ++feasible;
  }
  EXPECT_GE(feasible, num_tests - 1);
}

TEST_F(QrossPipeline, ComposedStrategyBeatsRandomOnAverage) {
  // Miniature Fig. 3: 3 test instances, 6 trials; QROSS's average best
  // fitness must not lose to random search.  (A weak form of the paper's
  // claim, kept loose because this is a unit-test-sized budget.)
  double qross_total = 0.0;
  double random_total = 0.0;
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 30;
  const core::QrossTuner tuner(*surrogate_, options);
  for (int i = 0; i < 3; ++i) {
    const auto inst = tsp::generate_uniform(8, 7000 + i);
    const surrogate::PreparedTspInstance prepared(inst);
    const auto ref = tsp::reference_solution(inst);
    options.seed = 200 + i;

    {
      core::TuneOptions tune;
      tune.trials = 6;
      tune.seed = static_cast<std::uint64_t>(i);
      const core::TuneOutcome outcome = tuner.tune(inst, solver_, tune);
      qross_total +=
          outcome.feasible() ? outcome.best_length / ref.length : 4.0;
    }
    {
      solvers::BatchRunner runner(prepared.problem(), solver_, options);
      tuning::RandomSearch random(1.0, 100.0, static_cast<std::uint64_t>(i));
      const auto result = core::run_tuning_loop(
          runner, 6, [&] { return random.propose(); });
      const double best = result.best_fitness.back();
      random_total += std::isfinite(best)
                          ? prepared.to_original_length(best) / ref.length
                          : 4.0;
    }
  }
  EXPECT_LE(qross_total, random_total + 0.15)
      << "QROSS lost clearly to random search";
}

TEST_F(QrossPipeline, PipelineIsDeterministic) {
  // Re-running dataset generation with identical seeds reproduces rows.
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 30;
  options.seed = 17;
  surrogate::SweepConfig sweep;
  sweep.slope_points = 6;
  sweep.plateau_points = 2;
  std::vector<tsp::TspInstance> two(instances_.begin(),
                                    instances_.begin() + 2);
  const auto a = surrogate::build_dataset(two, solver_, options, sweep);
  const auto b = surrogate::build_dataset(two, solver_, options, sweep);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rows[i].relaxation_parameter,
                     b.rows[i].relaxation_parameter);
    EXPECT_DOUBLE_EQ(a.rows[i].pf, b.rows[i].pf);
    EXPECT_DOUBLE_EQ(a.rows[i].energy_avg, b.rows[i].energy_avg);
  }
}

}  // namespace
}  // namespace qross
