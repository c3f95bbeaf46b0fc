#include "solvers/analog_noise.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "qubo/sparse.hpp"

namespace qross::solvers {

qubo::QuboModel perturb_coefficients(const qubo::QuboModel& model,
                                     double noise_stddev, std::uint64_t seed) {
  QROSS_REQUIRE(noise_stddev >= 0.0, "noise stddev must be non-negative");
  qubo::QuboModel noisy(model.num_vars());
  noisy.set_offset(model.offset());
  Rng rng(seed);
  // One draw per nonzero, in canonical order; absent couplers carry no
  // analog error.
  model.for_each_term([&](std::size_t i, std::size_t j, double w) {
    noisy.add_term(i, j, w + rng.normal(0.0, noise_stddev));
  });
  return noisy;
}

AnalogNoiseSolver::AnalogNoiseSolver(SolverPtr inner, AnalogNoiseParams params)
    : inner_(std::move(inner)), params_(params) {
  QROSS_REQUIRE(inner_ != nullptr, "inner solver required");
  QROSS_REQUIRE(params_.relative_precision >= 0.0,
                "relative precision must be non-negative");
  QROSS_REQUIRE(params_.num_noise_samples >= 1, "at least one noise sample");
}

std::string AnalogNoiseSolver::name() const {
  return inner_->name() + "+analog_noise";
}

qubo::SolveBatch AnalogNoiseSolver::solve(const qubo::QuboModel& model,
                                          const SolveOptions& options) const {
  const double noise_stddev =
      params_.relative_precision * model.max_abs_coefficient();
  const std::size_t samples =
      std::min(params_.num_noise_samples, std::max<std::size_t>(options.num_replicas, 1));

  // True-energy rescoring of every returned solution runs on one sparse
  // adjacency of the clean model, O(nnz) per solution.
  const qubo::SparseAdjacencyPtr clean = qubo::SparseAdjacency::build(model);

  qubo::SolveBatch combined;
  combined.results.reserve(options.num_replicas);
  std::size_t remaining = options.num_replicas;
  for (std::size_t s = 0; s < samples; ++s) {
    // The inner options copy carries options.stop and options.on_sweep, so
    // the wrapped kernel honours cancellation; this check just skips the
    // remaining noise draws once signalled.
    if (options.stop.stop_requested()) break;
    const std::size_t share = remaining / (samples - s);
    remaining -= share;
    if (share == 0) continue;
    const qubo::QuboModel noisy = perturb_coefficients(
        model, noise_stddev, derive_seed(options.seed, 0xa0a0ULL + s));
    SolveOptions inner_options = options;
    inner_options.num_replicas = share;
    inner_options.seed = derive_seed(options.seed, s);
    qubo::SolveBatch inner_batch = inner_->solve(noisy, inner_options);
    for (auto& result : inner_batch.results) {
      // Report the true energy of the solution found on the noisy landscape.
      result.qubo_energy = clean->energy(result.assignment);
      combined.results.push_back(std::move(result));
    }
  }
  if (combined.results.empty() && options.num_replicas > 0) {
    // Stopped before the first noise draw: still report valid (random)
    // assignments so downstream batch evaluation stays total, matching the
    // kernels' own stopped-before-start fallback.
    Rng rng(derive_seed(options.seed, 0xfa11ULL));
    combined.results.resize(options.num_replicas);
    for (auto& result : combined.results) {
      qubo::Bits x(model.num_vars());
      for (auto& bit : x) bit = rng.bernoulli(0.5) ? 1 : 0;
      result.qubo_energy = clean->energy(x);
      result.assignment = std::move(x);
    }
  }
  return combined;
}

}  // namespace qross::solvers
