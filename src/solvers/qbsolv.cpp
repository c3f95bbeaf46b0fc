#include "solvers/qbsolv.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "qubo/incremental.hpp"
#include "qubo/sparse.hpp"
#include "solvers/replica_for.hpp"
#include "solvers/simulated_annealer.hpp"
#include "solvers/tabu_search.hpp"

namespace qross::solvers {

qubo::QuboModel clamp_subproblem(const qubo::SparseAdjacency& adjacency,
                                 const std::vector<std::size_t>& subset,
                                 const qubo::Bits& x) {
  const std::size_t n = adjacency.num_vars();
  QROSS_REQUIRE(x.size() == n, "clamp state size mismatch");
  // position[v]: v's index in the subset, or n outside it.  `fixed` is x
  // with the subset's bits cleared.
  std::vector<std::size_t> position(n, n);
  qubo::Bits fixed = x;
  for (std::size_t a = 0; a < subset.size(); ++a) {
    const std::size_t v = subset[a];
    QROSS_REQUIRE(v < n, "subset variable out of range");
    QROSS_REQUIRE(position[v] == n, "duplicate variable in subset");
    position[v] = a;
    fixed[v] = 0;
  }

  // Constant part: fixed-variable energy (subset bits treated as 0).
  qubo::QuboModel sub(subset.size());
  sub.set_offset(adjacency.energy(fixed));

  // Linear terms pick up interactions with the clamped-on variables, in
  // ascending-j order; interactions inside the subset become quadratic.
  for (std::size_t a = 0; a < subset.size(); ++a) {
    const auto neighbors = adjacency.neighbors(subset[a]);
    const auto weights = adjacency.weights(subset[a]);
    double lin = adjacency.diagonal(subset[a]);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      if (fixed[neighbors[k]] != 0) lin += weights[k];
    }
    sub.add_term(a, a, lin);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const std::size_t b = position[neighbors[k]];
      if (b < n && b > a) sub.add_term(a, b, weights[k]);
    }
  }
  return sub;
}

Qbsolv::Qbsolv(QbsolvParams params) : params_(params) {
  QROSS_REQUIRE(params_.num_rounds >= 1, "at least one round");
  QROSS_REQUIRE(params_.subsolver_sweeps >= 1, "at least one sub-solver sweep");
}

qubo::SolveBatch Qbsolv::solve(const qubo::QuboModel& model,
                               const SolveOptions& options) const {
  const std::size_t n = model.num_vars();
  qubo::SolveBatch batch;
  batch.results.resize(options.num_replicas);
  if (n == 0) {
    for (auto& r : batch.results) r.qubo_energy = model.offset();
    return batch;
  }

  const std::size_t sub_size =
      params_.subproblem_size != 0
          ? std::min(params_.subproblem_size, n)
          : std::min(n, std::max<std::size_t>(16, n / 3));
  const SimulatedAnnealer subsolver;
  const TabuParams tabu_params;

  // One adjacency shared by every replica's initial evaluation and every
  // global tabu round; only the clamped sub-QUBOs are built per round.
  const qubo::SparseAdjacencyPtr adjacency = qubo::SparseAdjacency::build(model);

  for_each_replica(
      options.num_replicas, options.num_threads, [&](std::size_t replica) {
        Rng rng(derive_seed(options.seed, replica));
        qubo::Bits x(n);
        for (auto& bit : x) bit = rng.bernoulli(0.5) ? 1 : 0;
        double energy = adjacency->energy(x);  // O(n + nnz)

        for (std::size_t round = 0;
             round < params_.num_rounds && !options.stop.stop_requested();
             ++round) {
          // Phase 1: global tabu improvement, budget ~ one pass worth of
          // flips.  The stop token and progress tick flow into the tabu
          // loop (polled per iteration) and the SA sub-solve below (per
          // sweep), so a signalled replica exits mid-round.
          auto [improved, improved_energy] = TabuSearch::improve(
              adjacency, x, tabu_params,
              options.num_sweeps * n / params_.num_rounds + n,
              derive_seed(options.seed, (replica << 8) | (round << 1)),
              options.stop, options.on_sweep);
          if (improved_energy <= energy) {
            x = std::move(improved);
            energy = improved_energy;
          }

          // Phase 2: random-subspace sub-QUBO refinement.
          if (options.stop.stop_requested()) break;
          auto perm = rng.permutation(n);
          perm.resize(sub_size);
          std::sort(perm.begin(), perm.end());
          const qubo::QuboModel sub = clamp_subproblem(*adjacency, perm, x);
          SolveOptions sub_options;
          sub_options.num_replicas = 1;
          sub_options.num_sweeps = params_.subsolver_sweeps;
          sub_options.seed =
              derive_seed(options.seed, (replica << 8) | (round << 1) | 1);
          sub_options.stop = options.stop;
          sub_options.on_sweep = options.on_sweep;
          const qubo::SolveBatch sub_batch = subsolver.solve(sub, sub_options);
          const auto& sub_best = sub_batch.results[sub_batch.best_index()];
          if (sub_best.qubo_energy <= energy) {
            for (std::size_t a = 0; a < perm.size(); ++a) {
              x[perm[a]] = sub_best.assignment[a];
            }
            energy = sub_best.qubo_energy;
          }
        }
        batch.results[replica].assignment = std::move(x);
        batch.results[replica].qubo_energy = energy;
      });
  return batch;
}

}  // namespace qross::solvers
