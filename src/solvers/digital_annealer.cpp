#include "solvers/digital_annealer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "qubo/replica_block.hpp"
#include "qubo/sparse.hpp"
#include "solvers/delta_scale.hpp"
#include "solvers/replica_for.hpp"

namespace qross::solvers {

namespace {

constexpr std::size_t kBlockLanes = 8;

}  // namespace

DigitalAnnealer::DigitalAnnealer(DaParams params) : params_(params) {
  QROSS_REQUIRE(params_.initial_acceptance > 0.0 &&
                    params_.initial_acceptance < 1.0,
                "initial acceptance in (0,1)");
  QROSS_REQUIRE(params_.final_acceptance > 0.0 &&
                    params_.final_acceptance < params_.initial_acceptance,
                "final acceptance in (0, initial)");
  QROSS_REQUIRE(params_.offset_increase_rate > 0.0,
                "offset increase rate must be positive");
}

qubo::SolveBatch DigitalAnnealer::solve(const qubo::QuboModel& model,
                                        const SolveOptions& options) const {
  const std::size_t n = model.num_vars();
  qubo::SolveBatch batch;
  batch.results.resize(options.num_replicas);
  if (n == 0) {
    for (auto& r : batch.results) r.qubo_energy = model.offset();
    return batch;
  }

  const qubo::SparseAdjacencyPtr adjacency = qubo::SparseAdjacency::build(model);

  Rng probe_rng(derive_seed(options.seed, 0xda0ULL));
  const double typical_delta = probe_delta_scale(adjacency, probe_rng).typical;
  const double t_start = typical_delta / -std::log(params_.initial_acceptance);
  const double t_end = std::max(
      typical_delta * 1e-3 / -std::log(params_.final_acceptance),
      t_start * 1e-6);
  const double offset_step = params_.offset_increase_rate * typical_delta;

  const std::size_t sweeps = std::max<std::size_t>(1, options.num_sweeps);
  const double cooling =
      sweeps > 1 ? std::pow(t_end / t_start,
                            1.0 / static_cast<double>(sweeps - 1))
                 : 1.0;

  // The DA parallel-trial loop is naturally lockstep — every replica tests
  // ALL variables in ascending order each step — so replicas block straight
  // onto ReplicaBlockEvaluator with no schedule change.  The Metropolis
  // scan runs as one block kernel (trial_scan): its AVX2 arm steps the
  // lanes' xoshiro states in registers and screens u < exp(-delta / T)
  // with a polynomial filter, falling back to the exact std::exp
  // expression inside the filter's error band, so every accept decision
  // and RNG draw is bitwise the pre-SIMD per-replica kernel's on both arms
  // (config_digest is unchanged on purpose; cached batches stay valid).
  // The one flip a lane commits per step stays a scalar apply_flip_lane
  // since lanes pick divergent variables.
  for_each_replica_block(
      options.num_replicas, kBlockLanes, options.num_threads,
      [&](std::size_t first, std::size_t count) {
        qubo::ReplicaBlockEvaluator eval(adjacency, count);
        std::vector<Rng> rngs;
        rngs.reserve(count);
        std::vector<std::uint32_t> accepted(count * n);
        std::vector<std::uint32_t> num_accepted(count);
        std::vector<double> offset(count, 0.0);
        std::vector<double> best_energy(count);
        std::vector<qubo::Bits> best_state(count);
        qubo::Bits x(n);
        for (std::size_t l = 0; l < count; ++l) {
          rngs.emplace_back(derive_seed(options.seed, first + l));
          for (auto& bit : x) bit = rngs[l].bernoulli(0.5) ? 1 : 0;
          eval.set_state(l, x);
          best_energy[l] = eval.energy(l);
          eval.extract_state(l, best_state[l]);
        }

        double temperature = t_start;
        // One DA "sweep" performs n parallel-trial steps, matching the
        // per-sweep flip-attempt budget of the SA kernel for fair
        // comparisons.
        for (std::size_t sweep = 0;
             sweep < sweeps && !options.stop.stop_requested(); ++sweep) {
          for (std::size_t step = 0; step < n; ++step) {
            // Parallel trial: every variable runs the Metropolis test with
            // the dynamic offset relaxing the effective delta.
            eval.trial_scan(offset.data(), temperature, rngs.data(),
                            accepted.data(), num_accepted.data());
            for (std::size_t l = 0; l < count; ++l) {
              if (num_accepted[l] == 0) {
                offset[l] += offset_step;  // escape pressure grows
                continue;
              }
              const std::size_t pick = accepted[l * n + rngs[l].uniform_int(
                                                            num_accepted[l])];
              eval.apply_flip_lane(l, pick);
              offset[l] = 0.0;  // reset after an accepted move
              if (eval.energy(l) < best_energy[l]) {
                best_energy[l] = eval.energy(l);
                eval.extract_state(l, best_state[l]);
              }
            }
          }
          temperature *= cooling;
          if (block_sweep_checkpoint(options, count)) break;
        }
        for (std::size_t l = 0; l < count; ++l) {
          batch.results[first + l].assignment = std::move(best_state[l]);
          batch.results[first + l].qubo_energy = best_energy[l];
        }
      });
  return batch;
}

}  // namespace qross::solvers
