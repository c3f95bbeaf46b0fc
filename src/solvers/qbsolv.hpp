#pragma once

// Qbsolv-style hybrid decomposing solver (Booth, Reinhardt & Roy, D-Wave
// technical report 2017).
//
// The real Qbsolv splits a large QUBO into sub-QUBOs sized for the quantum
// annealer, solves each sub-problem with the backend while clamping the
// remaining variables, and interleaves global tabu-search improvement.  The
// paper used Qbsolv with a *simulator* backend; we reproduce that structure
// with a simulated-annealing sub-solver:
//
//   repeat num_rounds times:
//     1. global tabu improvement of the incumbent;
//     2. pick a random subset of `subproblem_size` variables, clamp the
//        rest, build the induced sub-QUBO, solve it by SA, and accept the
//        sub-solution if it does not worsen the incumbent.
//
// This is deliberately a different heuristic family from the Digital
// Annealer kernel — the cross-solver generalisation and ablation
// experiments (Table 1 rows 5-8, Fig. 5) rely on the two solvers having
// genuinely different response surfaces.

#include "qubo/sparse.hpp"
#include "solvers/solver.hpp"

namespace qross::solvers {

struct QbsolvParams {
  /// Variables per sub-QUBO; 0 means auto (min(n, max(16, n/3))).
  std::size_t subproblem_size = 0;
  /// Decomposition rounds per replica.
  std::size_t num_rounds = 2;
  /// Sweeps for the SA sub-solver on each sub-QUBO.
  std::size_t subsolver_sweeps = 30;
};

class Qbsolv final : public QuboSolver {
 public:
  explicit Qbsolv(QbsolvParams params = {});

  std::string name() const override { return "qbsolv"; }
  std::uint64_t config_digest() const override {
    return Hash64()
        .mix(std::string_view("qbsolv"))
        .mix(static_cast<std::uint64_t>(params_.subproblem_size))
        .mix(static_cast<std::uint64_t>(params_.num_rounds))
        .mix(static_cast<std::uint64_t>(params_.subsolver_sweeps))
        .digest();
  }
  qubo::SolveBatch solve(const qubo::QuboModel& model,
                         const SolveOptions& options) const override;

 private:
  QbsolvParams params_;
};

/// Builds the sub-QUBO induced by clamping all variables outside `subset`
/// to their values in `x`.  Returns a model over subset.size() variables in
/// subset order; its energy equals the full model's energy restricted to
/// assignments agreeing with x outside the subset.  Runs on the adjacency
/// the solve already holds, in O(n + nnz).  Exposed for testing.
qubo::QuboModel clamp_subproblem(const qubo::SparseAdjacency& adjacency,
                                 const std::vector<std::size_t>& subset,
                                 const qubo::Bits& x);

}  // namespace qross::solvers
