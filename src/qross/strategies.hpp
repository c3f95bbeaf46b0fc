#pragma once

// Relaxation-parameter selection strategies (paper §3.4 and §4.2).
//
//  * MinimumFitnessStrategy (MFS, offline): minimise the surrogate-predicted
//    expected minimum fitness over A with a global optimiser.
//  * PfBasedStrategy (PBS, offline): find A with Pf(A) closest to a target
//    feasibility probability p.
//  * OnlineFittingStrategy (OFS, online): fit the sigmoid ansatz to observed
//    (A, Pf) pairs and sample the next candidate on the fitted slope
//    (Algorithm 1).
//  * ComposedStrategy: the paper's benchmark mixture — MFS first, then PBS
//    at p = 80% and 20%, then OFS for the remaining trials, with early
//    trials feeding the OFS curve fit.
//
// Offline strategies consult only the surrogate; they cost zero solver
// calls.  The online strategy consumes the observed SolverSamples.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "qross/min_fitness.hpp"
#include "qross/sigmoid_fit.hpp"
#include "solvers/batch_runner.hpp"
#include "surrogate/model.hpp"

namespace qross::core {

/// Everything a strategy needs to know about the instance being tuned.
/// The surrogate is consulted through the prediction-only evaluator
/// interface, so a serving layer can substitute e.g. the cross-session
/// batching combiner (surrogate/batched.hpp) without the strategies
/// noticing — any conforming evaluator is bit-identical by contract.
struct StrategyContext {
  const surrogate::SurrogateEvaluator* surrogate = nullptr;
  std::array<double, surrogate::kNumTspFeatures> features{};
  double anchor = 1.0;
  /// Relaxation-parameter search box (prepared-instance units).
  double a_min = 1.0;
  double a_max = 100.0;
  /// Solver batch size B used in the expected-minimum-fitness formula.
  std::size_t batch_size = 32;
};

class MinimumFitnessStrategy {
 public:
  explicit MinimumFitnessStrategy(MinFitnessConfig config = {},
                                  std::size_t grid_points = 96);

  /// argmin_A E[min fitness](A) over the context's search box.
  double propose(const StrategyContext& context) const;

  /// The predicted landscape (for inspection / the paper's "predict the
  /// landscape of the objective function" feature).
  std::vector<std::pair<double, double>> landscape(
      const StrategyContext& context, std::size_t points = 64) const;

 private:
  MinFitnessConfig config_;
  std::size_t grid_points_;
};

class PfBasedStrategy {
 public:
  /// target_pf = the paper's p (e.g. 0.8 or 0.2).
  explicit PfBasedStrategy(double target_pf);

  /// argmin_A |Pf(A) - p|.
  double propose(const StrategyContext& context) const;

  double target_pf() const { return target_pf_; }

 private:
  double target_pf_;
};

class OnlineFittingStrategy {
 public:
  struct Config {
    /// Slope band sampled from: candidates satisfy eps < S(A) < 1 - eps.
    double epsilon = 0.05;
    /// Minimum observations before curve fitting kicks in; before that the
    /// strategy explores by bound doubling/halving.
    std::size_t min_history = 2;
  };

  OnlineFittingStrategy();
  explicit OnlineFittingStrategy(std::uint64_t seed);
  OnlineFittingStrategy(Config config, std::uint64_t seed);

  /// Next candidate A (Algorithm 1 lines 4-5).
  double propose(const StrategyContext& context);

  /// Records a solver result (Algorithm 1 lines 6-7).
  void observe(const solvers::SolverSample& sample);

  const std::vector<solvers::SolverSample>& history() const {
    return history_;
  }

  /// Latest sigmoid fit, if one has been computed.
  const std::optional<SigmoidFitResult>& last_fit() const { return last_fit_; }

 private:
  Config config_;
  Rng rng_;
  std::vector<solvers::SolverSample> history_;
  std::optional<SigmoidFitResult> last_fit_;
  // Running bracket: largest A seen with Pf == 0, smallest with Pf == 1.
  std::optional<double> a_left_;
  std::optional<double> a_right_;
};

/// The paper's composed benchmark strategy (§5 "Strategy").
class ComposedStrategy {
 public:
  struct Config {
    std::vector<double> pbs_targets{0.8, 0.2};
    /// The composed strategy's first trial is its only shot at a feasible
    /// solution before any solver feedback, so its MFS runs risk-averse by
    /// default (see MinFitnessConfig::risk_aversion; z = 1.5 calibrated on
    /// the synthetic benchmark at B = 16).  Standalone
    /// MinimumFitnessStrategy keeps the paper-pure z = 0 default.
    MinFitnessConfig min_fitness{.panels = 512,
                                 .tail_sigmas = 10.0,
                                 .pf_floor = 1e-6,
                                 .risk_aversion = 1.5};
    OnlineFittingStrategy::Config ofs;
  };

  explicit ComposedStrategy(std::uint64_t seed);
  ComposedStrategy(Config config, std::uint64_t seed);

  /// Candidate for the next trial; call observe() with the result before
  /// the next propose().
  double propose(const StrategyContext& context);
  void observe(const solvers::SolverSample& sample);

  std::size_t num_trials() const { return num_proposed_; }

 private:
  Config config_;
  MinimumFitnessStrategy mfs_;
  OnlineFittingStrategy ofs_;
  std::size_t num_proposed_ = 0;
};

}  // namespace qross::core
