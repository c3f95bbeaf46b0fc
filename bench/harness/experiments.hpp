#pragma once

// Shared experiment machinery for the benchmark binaries: solver
// construction with per-experiment budgets, dataset/surrogate caching, the
// tuning comparison, and gap-trajectory aggregation.
//
// Every method tunes through core::run_tuning_loop, the one trial loop:
// QROSS through QrossTuner::tune, the path the daemon serves, and the
// baselines through their own tuning::Tuner proposer.  Every gap is the
// best feasible tour so far, decoded and re-scored on the original matrix.
//
// Every knob that differs from the paper is scaled down for single-core
// execution; EXPERIMENTS.md records the mapping.  Set QROSS_FAST=1 to run a
// further-reduced smoke version of every experiment.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/cache.hpp"
#include "problems/tsp/instance.hpp"
#include "qross/facade.hpp"
#include "solvers/solver.hpp"
#include "surrogate/dataset.hpp"
#include "surrogate/model.hpp"

namespace qross::bench {

enum class SolverKind { kDa, kSa, kQbsolv };
enum class Method { kQross, kTpe, kBo, kRandom };

std::string solver_label(SolverKind kind);
std::string method_label(Method method);

struct ExperimentConfig {
  // Synthetic dataset (paper: 300 instances of 20-30 cities, 270/30 split).
  std::size_t train_instances = 40;
  std::size_t test_instances = 12;
  std::size_t min_cities = 8;
  std::size_t max_cities = 14;
  std::uint64_t dataset_seed = 0xD5;

  // Relaxation-parameter search box (paper §5.1: A in [1, 100]).
  double a_min = 1.0;
  double a_max = 100.0;

  // Tuning comparison (paper: first 20 trials).
  std::size_t trials = 20;

  /// Normalised gap recorded while no feasible solution has been found yet.
  double infeasible_gap = 1.0;

  /// Dataset-generation sweep (per instance).
  surrogate::SweepConfig sweep;

  bool fast = false;

  ExperimentConfig() {
    sweep.slope_points = 8;
    sweep.plateau_points = 2;
    sweep.bisection_steps = 4;
  }
};

/// Default config, honouring QROSS_FAST=1 (fewer instances and trials).
ExperimentConfig default_config();

/// Solver instance for a kind (bench-calibrated parameters; see
/// EXPERIMENTS.md, "Scaled-down settings").
solvers::SolverPtr make_solver(SolverKind kind);

/// Per-kind solve budgets (batch size B and sweeps), independent of size.
solvers::SolveOptions make_solve_options(SolverKind kind,
                                         std::uint64_t seed = 1);

/// Synthetic instance splits (train and held-out test).
std::vector<tsp::TspInstance> synthetic_train_instances(
    const ExperimentConfig& config);
std::vector<tsp::TspInstance> synthetic_test_instances(
    const ExperimentConfig& config);

/// The TSPLIB-like out-of-distribution evaluation set.
std::vector<tsp::TspInstance> tsplib_test_instances(
    const ExperimentConfig& config);

/// Cached dataset of solver responses on the synthetic training split.
surrogate::Dataset get_or_build_dataset(const Cache& cache, SolverKind kind,
                                        const ExperimentConfig& config);

/// Cached surrogate trained on get_or_build_dataset(kind).
surrogate::SolverSurrogate get_or_train_surrogate(
    const Cache& cache, SolverKind kind, const ExperimentConfig& config);

/// Bumped whenever the harness changes how it produces a cached artifact,
/// so a rerun never reprints what an older harness wrote.  Revision 2: QROSS
/// runs through QrossTuner::tune and every gap re-scores a decoded tour.
inline constexpr std::uint64_t kHarnessRevision = 2;

/// Digest of every input that produces a cached artifact: the solver's
/// config_digest, its solve options, the experiment config (sweep
/// included), the composed strategy's config and the harness revision.
std::uint64_t inputs_digest(const solvers::QuboSolver& solver,
                            const solvers::SolveOptions& options,
                            const ExperimentConfig& config,
                            const core::ComposedStrategy::Config& strategy,
                            std::uint64_t revision = kHarnessRevision);

/// inputs_digest of `kind`'s bench solver and solve options under the
/// default composed strategy, as 16 hex digits: the part of every
/// qross_cache/ key that names what produced the file.
std::string inputs_key(SolverKind kind, const ExperimentConfig& config);

/// Normalised-gap trajectory of one method on one instance:
/// gap[t] = best-feasible original tour length after trial t / reference - 1
/// (config.infeasible_gap while nothing feasible has been seen).  QROSS
/// needs `tuner` and reads each trial's best_length_so_far from
/// tuner->tune(); the baselines ignore it.
std::vector<double> run_method_on_instance(
    Method method, const tsp::TspInstance& instance,
    const core::QrossTuner* tuner, SolverKind solver_kind,
    const ExperimentConfig& config, std::uint64_t seed);

/// Mean gap per trial with a 95% confidence half-width, across instances.
struct GapSeries {
  std::vector<double> mean;
  std::vector<double> ci95;

  std::string to_csv() const;
  static GapSeries from_csv(const std::string& text);
};

/// Runs (or loads) the full comparison of `method` on a named instance set.
/// `surrogate_kind` selects which solver's surrogate QROSS uses (differs
/// from `solver_kind` only in the Fig. 5 cross-solver ablation).
GapSeries get_or_run_comparison(const Cache& cache, Method method,
                                SolverKind surrogate_kind,
                                SolverKind solver_kind,
                                const std::string& instance_set,
                                const ExperimentConfig& config);

/// Instance set names accepted by get_or_run_comparison.
inline constexpr const char* kSyntheticTestSet = "synthetic";
inline constexpr const char* kTsplibTestSet = "tsplib";

}  // namespace qross::bench
