#pragma once

// The one tuning-session loop.  Every tuner runs through it: QrossTuner::tune
// (and so SubmitTune, TuneService and `qross_cli tune`) and the baseline
// tuners of the paper benches.  At each trial a proposer picks A, the runner
// makes exactly one solver call, and the observer sees the result.  The
// stop token is checked before each trial; a fired token ends the session
// with the completed prefix.  The trajectory of best-feasible-fitness per
// trial is the paper's central metric (Figs. 3-5, Table 1).

#include <functional>
#include <vector>

#include "solvers/batch_runner.hpp"

namespace qross::core {

struct TuningResult {
  std::vector<solvers::SolverSample> samples;  ///< one per completed trial
  /// Best (lowest) feasible fitness after each trial; +inf until the first
  /// feasible solution appears.
  std::vector<double> best_fitness;
  /// True when the stop token ended the session before its trial budget.
  bool cancelled = false;
};

using ProposeFn = std::function<double()>;
using ObserveFn = std::function<void(const solvers::SolverSample&)>;

/// Runs up to `num_trials` trials, checking `stop` before each one.
/// `observe` may be null.
TuningResult run_tuning_loop(solvers::BatchRunner& runner,
                             std::size_t num_trials, const ProposeFn& propose,
                             const ObserveFn& observe = nullptr,
                             const solvers::StopToken& stop = {});

}  // namespace qross::core
