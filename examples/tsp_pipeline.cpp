// The full QROSS workflow on TSP (paper Fig. 2):
//
//   1. collect solver responses on a history of instances (training),
//   2. train the solver surrogate (Pf / Eavg / Estd heads),
//   3. on a NEW instance, propose relaxation parameters offline (MFS, PBS)
//      and online (OFS) and compare against a random-search baseline.
//
// Sized to run in well under a minute on one core.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "problems/tsp/generators.hpp"
#include "problems/tsp/heuristics.hpp"
#include "qross/facade.hpp"
#include "qross/session.hpp"
#include "solvers/batch_runner.hpp"
#include "solvers/qbsolv.hpp"
#include "surrogate/dataset.hpp"
#include "surrogate/model.hpp"
#include "surrogate/pipeline.hpp"
#include "tuning/random_search.hpp"

using namespace qross;

int main() {
  // -- 1. History: 10 small instances, swept with the Qbsolv hybrid. ------
  std::printf("[1/3] building training dataset from solver history...\n");
  const auto history = tsp::generate_synthetic_dataset(10, 7, 10, 0xCAFE);
  solvers::QbsolvParams solver_params;
  solver_params.num_rounds = 1;
  solver_params.subsolver_sweeps = 20;
  const auto solver = std::make_shared<solvers::Qbsolv>(solver_params);

  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 20;
  options.seed = 99;

  surrogate::SweepConfig sweep;
  sweep.slope_points = 6;
  sweep.plateau_points = 2;
  const surrogate::Dataset dataset =
      surrogate::build_dataset(history, solver, options, sweep);
  std::printf("      %zu labelled solver calls\n", dataset.rows.size());

  // -- 2. Train the surrogate. ---------------------------------------------
  std::printf("[2/3] training solver surrogate...\n");
  surrogate::SolverSurrogate surrogate;
  const auto [pf_history, energy_history] = surrogate.train(dataset);
  std::printf("      Pf head: %zu epochs (best val %.4f); energy head: %zu "
              "epochs (best val %.4f)\n",
              pf_history.train_loss.size(), pf_history.best_val_loss,
              energy_history.train_loss.size(), energy_history.best_val_loss);

  // -- 3. Tune a fresh instance. -------------------------------------------
  std::printf("[3/3] tuning a new instance...\n");
  const auto instance = tsp::generate_uniform(9, 0xF0E5);
  const double reference = tsp::reference_solution(instance).length;
  const core::QrossTuner tuner(std::move(surrogate), options);

  // Offline proposals — zero solver calls so far.
  std::printf("      offline proposals: MFS A = %.1f, PBS(90%%) A = %.1f\n",
              tuner.propose(instance), tuner.propose(instance, 0.9));

  // Composed strategy for 8 trials vs random search with the same budget.
  const std::size_t trials = 8;
  const auto report = [&](const char* label, double best) {
    if (std::isfinite(best)) {
      std::printf("      %-16s best tour %.2f (gap %+.2f%%)\n", label, best,
                  100.0 * (best / reference - 1.0));
    } else {
      std::printf("      %-16s no feasible solution in %zu trials\n", label,
                  trials);
    }
  };
  {
    core::TuneOptions tune;
    tune.trials = trials;
    tune.seed = 2718;
    report("QROSS composed:", tuner.tune(instance, solver, tune).best_length);
  }
  {
    const surrogate::PreparedTspInstance prepared(instance);
    solvers::BatchRunner runner(prepared.problem(), solver, options);
    tuning::RandomSearch random(1.0, 100.0, 2718);
    const auto result =
        core::run_tuning_loop(runner, trials, [&] { return random.propose(); });
    double best = std::numeric_limits<double>::infinity();
    for (const auto& sample : result.samples) {
      if (sample.stats.has_feasible()) {
        best = std::min(
            best, prepared.original_tour_length(*sample.stats.best_feasible));
      }
    }
    report("random search:", best);
  }
  std::printf("      (reference 2-opt tour: %.2f)\n", reference);
  return 0;
}
