#include "qross/session.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace qross::core {

TuningResult run_tuning_loop(solvers::BatchRunner& runner,
                             std::size_t num_trials, const ProposeFn& propose,
                             const ObserveFn& observe,
                             const solvers::StopToken& stop) {
  QROSS_REQUIRE(propose != nullptr, "proposer required");
  TuningResult result;
  result.samples.reserve(num_trials);
  result.best_fitness.reserve(num_trials);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t trial = 0; trial < num_trials; ++trial) {
    if (stop.stop_requested()) {
      result.cancelled = true;
      break;
    }
    const double a = propose();
    const solvers::SolverSample sample = runner.run(a);
    best = std::min(best, sample.stats.min_fitness);
    result.samples.push_back(sample);
    result.best_fitness.push_back(best);
    if (observe) observe(sample);
  }
  return result;
}

}  // namespace qross::core
