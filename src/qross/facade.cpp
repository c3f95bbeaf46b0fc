#include "qross/facade.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <limits>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "problems/tsp/formulation.hpp"
#include "service/service_solver.hpp"
#include "solvers/batch_runner.hpp"
#include "surrogate/pipeline.hpp"

namespace qross::core {

const char* to_string(TuneStrategyKind kind) {
  switch (kind) {
    case TuneStrategyKind::composed:
      return "composed";
    case TuneStrategyKind::mfs:
      return "mfs";
    case TuneStrategyKind::pbs:
      return "pbs";
    case TuneStrategyKind::ofs:
      return "ofs";
  }
  return "unknown";
}

namespace {

StrategyContext make_context(
    const surrogate::SurrogateEvaluator& surrogate,
    const std::array<double, surrogate::kNumTspFeatures>& features,
    const TuneOptions& options, std::size_t batch_size) {
  StrategyContext context;
  context.surrogate = &surrogate;
  context.features = features;
  context.anchor = surrogate::scale_anchor(features);
  context.a_min = options.a_min;
  context.a_max = options.a_max;
  context.batch_size = batch_size;
  return context;
}

}  // namespace

QrossTuner::QrossTuner(surrogate::SolverSurrogate surrogate,
                       solvers::SolveOptions solve_options)
    : surrogate_(std::move(surrogate)), solve_options_(solve_options) {
  QROSS_REQUIRE(surrogate_.is_trained(), "tuner needs a trained surrogate");
}

QrossTuner QrossTuner::fit(const std::vector<tsp::TspInstance>& history,
                           solvers::SolverPtr solver,
                           const solvers::SolveOptions& solve_options,
                           const surrogate::SweepConfig& sweep,
                           const surrogate::SurrogateConfig& config) {
  QROSS_REQUIRE(!history.empty(), "history must not be empty");
  const surrogate::Dataset dataset =
      surrogate::build_dataset(history, std::move(solver), solve_options, sweep);
  surrogate::SolverSurrogate surrogate(config);
  surrogate.train(dataset);
  return QrossTuner(std::move(surrogate), solve_options);
}

void QrossTuner::save(std::ostream& os) const {
  os << "qross_tuner_v1 " << solve_options_.num_replicas << ' '
     << solve_options_.num_sweeps << ' ' << solve_options_.seed << "\n";
  surrogate_.save(os);
}

QrossTuner QrossTuner::load(std::istream& is) {
  std::string magic;
  solvers::SolveOptions options;
  QROSS_REQUIRE(static_cast<bool>(is >> magic >> options.num_replicas >>
                                  options.num_sweeps >> options.seed) &&
                    magic == "qross_tuner_v1",
                "bad tuner header");
  return QrossTuner(surrogate::SolverSurrogate::load(is), options);
}

double QrossTuner::propose(const tsp::TspInstance& instance,
                           std::optional<double> pf_target,
                           const TuneOptions& options) const {
  const surrogate::PreparedTspInstance prepared(instance);
  const auto features = surrogate::extract_features(prepared.prepared());
  const StrategyContext context =
      make_context(surrogate_, features, options, solve_options_.num_replicas);
  if (pf_target.has_value()) {
    return PfBasedStrategy(*pf_target).propose(context);
  }
  return MinimumFitnessStrategy(options.strategy.min_fitness).propose(context);
}

TuneOutcome QrossTuner::tune(const tsp::TspInstance& instance,
                             const solvers::SolverPtr& solver,
                             const TuneOptions& options) const {
  QROSS_REQUIRE(solver != nullptr, "solver required");
  QROSS_REQUIRE(options.trials >= 1, "at least one trial");

  const surrogate::PreparedTspInstance prepared(instance);
  const auto features = surrogate::extract_features(prepared.prepared());
  const surrogate::SurrogateEvaluator& evaluator =
      options.evaluator != nullptr ? *options.evaluator : surrogate_;
  const StrategyContext context =
      make_context(evaluator, features, options, solve_options_.num_replicas);

  solvers::SolveOptions solve_options = solve_options_;
  solve_options.seed = derive_seed(options.seed, 0x7e);
  solve_options.stop = options.stop;
  // Routed through the shared solve service when the caller provides one:
  // identical trial calls (same model, options, derived seed) coalesce and
  // hit its result cache, so repeated sessions cost no extra solver calls.
  solvers::SolverPtr effective_solver = solver;
  if (options.service != nullptr) {
    service::SubmitOptions submit;
    submit.client_id = options.client_id;
    submit.trace_id = options.trace_id;
    effective_solver = std::make_shared<service::ServiceSolver>(
        *options.service, solver, submit);
  }
  solvers::BatchRunner runner(prepared.problem(), effective_solver,
                              solve_options);

  // All modes share the seed derivation so switching a session's mode never
  // perturbs another mode's probed-A sequence.
  ComposedStrategy composed(options.strategy, derive_seed(options.seed, 1));
  MinimumFitnessStrategy mfs(options.strategy.min_fitness);
  PfBasedStrategy pbs(options.pf_target);
  OnlineFittingStrategy ofs(options.strategy.ofs, derive_seed(options.seed, 1));
  const auto propose = [&]() -> double {
    switch (options.mode) {
      case TuneStrategyKind::mfs:
        return mfs.propose(context);
      case TuneStrategyKind::pbs:
        return pbs.propose(context);
      case TuneStrategyKind::ofs:
        return ofs.propose(context);
      case TuneStrategyKind::composed:
        break;
    }
    return composed.propose(context);
  };
  // The facade's part of each trial: strategy feedback, tour decode, best
  // tour and the progress event.
  TuneOutcome outcome;
  outcome.best_length = std::numeric_limits<double>::infinity();
  const auto observe = [&](const solvers::SolverSample& sample) {
    // The offline strategies (mfs, pbs) consume no feedback.
    if (options.mode == TuneStrategyKind::composed) composed.observe(sample);
    if (options.mode == TuneStrategyKind::ofs) ofs.observe(sample);

    const double a = sample.relaxation_parameter;
    if (sample.stats.has_feasible()) {
      const auto tour =
          tsp::decode_tour(prepared.prepared(), *sample.stats.best_feasible);
      QROSS_ASSERT(tour.has_value());
      const double length = instance.tour_length(*tour);
      if (length < outcome.best_length) {
        outcome.best_length = length;
        outcome.best_tour = *tour;
        outcome.best_parameter = a;
      }
    }
    outcome.trials.push_back({a, sample.stats.pf, outcome.best_length});
    if (options.on_trial) {
      options.on_trial({.index = outcome.trials.size() - 1,
                        .total = options.trials,
                        .relaxation_parameter = a,
                        .pf = sample.stats.pf,
                        .energy_avg = sample.stats.energy_avg,
                        .energy_std = sample.stats.energy_std,
                        .best_length = outcome.best_length,
                        .feasible = outcome.feasible()});
    }
  };

  outcome.cancelled =
      run_tuning_loop(runner, options.trials, propose, observe, options.stop)
          .cancelled;
  return outcome;
}

}  // namespace qross::core
