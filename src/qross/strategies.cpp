#include "qross/strategies.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "qross/optimizers.hpp"

namespace qross::core {

namespace {

void check_context(const StrategyContext& context) {
  QROSS_REQUIRE(context.surrogate != nullptr && context.surrogate->is_trained(),
                "strategy needs a trained surrogate");
  QROSS_REQUIRE(context.a_min > 0.0 && context.a_max > context.a_min,
                "invalid A search box");
  QROSS_REQUIRE(context.batch_size >= 1, "batch size must be positive");
}

/// Log-spaced grid over the search box (A is a scale-like parameter).
std::vector<double> log_grid(double lo, double hi, std::size_t points) {
  std::vector<double> grid(points);
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = points > 1
                         ? static_cast<double>(i) / static_cast<double>(points - 1)
                         : 0.5;
    grid[i] = std::exp(llo + t * (lhi - llo));
  }
  return grid;
}

}  // namespace

// ---------------------------------------------------------------- MFS ----

MinimumFitnessStrategy::MinimumFitnessStrategy(MinFitnessConfig config,
                                               std::size_t grid_points)
    : config_(config), grid_points_(grid_points) {
  QROSS_REQUIRE(grid_points_ >= 4, "grid too coarse");
}

double MinimumFitnessStrategy::propose(const StrategyContext& context) const {
  check_context(context);
  auto objective = [&](double a) {
    const auto p = context.surrogate->predict(context.features, context.anchor,
                                              std::clamp(a, context.a_min,
                                                         context.a_max));
    return expected_min_fitness(p.pf, p.energy_avg, p.energy_std,
                                context.batch_size, config_);
  };
  // Surrogate landscapes are cheap: dense grid scan, then a local polish
  // (the shgo-lite pattern, robust to the +inf plateau at small A).
  const auto grid = log_grid(context.a_min, context.a_max, grid_points_);
  double best_a = grid.back();
  double best_value = std::numeric_limits<double>::infinity();
  for (double a : grid) {
    const double v = objective(a);
    if (v < best_value) {
      best_value = v;
      best_a = a;
    }
  }
  if (!std::isfinite(best_value)) {
    // Surrogate says nothing is feasible anywhere: return the top of the
    // box, the most feasibility-favouring choice available.
    return context.a_max;
  }
  // Refine within the neighbouring grid cells.
  const double step = std::log(grid[1] / grid[0]);
  const double lo = std::max(context.a_min, best_a * std::exp(-step));
  const double hi = std::min(context.a_max, best_a * std::exp(step));
  if (lo < hi) {
    const auto local = opt::brent_minimize(objective, lo, hi, 1e-6);
    if (local.value < best_value) best_a = local.x;
  }
  return best_a;
}

std::vector<std::pair<double, double>> MinimumFitnessStrategy::landscape(
    const StrategyContext& context, std::size_t points) const {
  check_context(context);
  const auto grid = log_grid(context.a_min, context.a_max, points);
  const auto predictions =
      context.surrogate->predict_sweep(context.features, context.anchor, grid);
  std::vector<std::pair<double, double>> out;
  out.reserve(points);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out.emplace_back(grid[i], expected_min_fitness(
                                  predictions[i].pf, predictions[i].energy_avg,
                                  predictions[i].energy_std,
                                  context.batch_size, config_));
  }
  return out;
}

// ---------------------------------------------------------------- PBS ----

PfBasedStrategy::PfBasedStrategy(double target_pf) : target_pf_(target_pf) {
  QROSS_REQUIRE(target_pf_ > 0.0 && target_pf_ < 1.0, "target Pf in (0, 1)");
}

double PfBasedStrategy::propose(const StrategyContext& context) const {
  check_context(context);
  const auto grid = log_grid(context.a_min, context.a_max, 128);
  const auto predictions =
      context.surrogate->predict_sweep(context.features, context.anchor, grid);
  double best_a = grid.front();
  double best_gap = std::numeric_limits<double>::infinity();
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double gap = std::abs(predictions[i].pf - target_pf_);
    if (gap < best_gap) {
      best_gap = gap;
      best_a = grid[i];
      best_index = i;
    }
  }
  // Local refinement between the neighbours of the best grid point.
  const double lo = grid[best_index > 0 ? best_index - 1 : 0];
  const double hi = grid[std::min(best_index + 1, grid.size() - 1)];
  if (lo < hi) {
    auto gap_at = [&](double a) {
      return std::abs(
          context.surrogate->predict(context.features, context.anchor, a).pf -
          target_pf_);
    };
    const auto local = opt::brent_minimize(gap_at, lo, hi, 1e-6);
    if (local.value < best_gap) best_a = local.x;
  }
  return best_a;
}

// ---------------------------------------------------------------- OFS ----

OnlineFittingStrategy::OnlineFittingStrategy()
    : OnlineFittingStrategy(Config{}, 99) {}

OnlineFittingStrategy::OnlineFittingStrategy(std::uint64_t seed)
    : OnlineFittingStrategy(Config{}, seed) {}

OnlineFittingStrategy::OnlineFittingStrategy(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  QROSS_REQUIRE(config_.epsilon > 0.0 && config_.epsilon < 0.5,
                "epsilon in (0, 0.5)");
}

double OnlineFittingStrategy::propose(const StrategyContext& context) {
  QROSS_REQUIRE(context.a_min > 0.0 && context.a_max > context.a_min,
                "invalid A search box");
  // Exploration fallback: too little history (or a degenerate one) —
  // expand the bracket by doubling / halving (Algorithm 1 lines 1-2).
  auto explore = [&]() {
    if (!a_left_.has_value() && !history_.empty()) {
      // Everything feasible so far: push down.
      double lowest = context.a_max;
      for (const auto& s : history_) {
        lowest = std::min(lowest, s.relaxation_parameter);
      }
      return std::max(lowest / 2.0, context.a_min);
    }
    if (!a_right_.has_value() && !history_.empty()) {
      double highest = context.a_min;
      for (const auto& s : history_) {
        highest = std::max(highest, s.relaxation_parameter);
      }
      return std::min(highest * 2.0, context.a_max);
    }
    // No history at all: geometric midpoint of the box.
    return std::sqrt(context.a_min * context.a_max);
  };

  if (history_.size() < config_.min_history) return explore();

  std::vector<double> a_values, pf_values;
  a_values.reserve(history_.size());
  pf_values.reserve(history_.size());
  for (const auto& s : history_) {
    a_values.push_back(s.relaxation_parameter);
    pf_values.push_back(s.stats.pf);
  }
  const SigmoidFitResult fit = fit_sigmoid(a_values, pf_values);
  last_fit_ = fit;
  if (!fit.converged && std::abs(fit.params.theta_s) < 1e-12) return explore();

  // Slope band {A : eps < S(A) < 1 - eps} intersected with the bracket.
  double band_lo = fit.params.inverse(fit.params.theta_s > 0.0
                                          ? config_.epsilon
                                          : 1.0 - config_.epsilon);
  double band_hi = fit.params.inverse(fit.params.theta_s > 0.0
                                          ? 1.0 - config_.epsilon
                                          : config_.epsilon);
  if (band_lo > band_hi) std::swap(band_lo, band_hi);
  if (a_left_.has_value()) band_lo = std::max(band_lo, *a_left_);
  if (a_right_.has_value()) band_hi = std::min(band_hi, *a_right_);
  band_lo = std::clamp(band_lo, context.a_min, context.a_max);
  band_hi = std::clamp(band_hi, context.a_min, context.a_max);
  if (band_lo >= band_hi) return explore();
  // Draw Anext ~ U(band) (Algorithm 1 line 5).
  return rng_.uniform(band_lo, band_hi);
}

void OnlineFittingStrategy::observe(const solvers::SolverSample& sample) {
  history_.push_back(sample);
  const double a = sample.relaxation_parameter;
  if (sample.stats.pf == 0.0) {
    if (!a_left_.has_value() || a > *a_left_) a_left_ = a;
  } else if (sample.stats.pf == 1.0) {
    if (!a_right_.has_value() || a < *a_right_) a_right_ = a;
  }
}

// ----------------------------------------------------------- Composed ----

ComposedStrategy::ComposedStrategy(std::uint64_t seed)
    : ComposedStrategy(Config{}, seed) {}

ComposedStrategy::ComposedStrategy(Config config, std::uint64_t seed)
    : config_(std::move(config)),
      mfs_(config_.min_fitness),
      ofs_(config_.ofs, seed) {}

double ComposedStrategy::propose(const StrategyContext& context) {
  check_context(context);
  double a = 0.0;
  if (num_proposed_ == 0) {
    a = mfs_.propose(context);
  } else if (num_proposed_ <= config_.pbs_targets.size()) {
    const PfBasedStrategy pbs(config_.pbs_targets[num_proposed_ - 1]);
    a = pbs.propose(context);
  } else {
    a = ofs_.propose(context);
  }
  ++num_proposed_;
  return std::clamp(a, context.a_min, context.a_max);
}

void ComposedStrategy::observe(const solvers::SolverSample& sample) {
  // Every trial, including the offline ones, feeds the OFS curve fit
  // (paper: "The trials in the first two step can be used for curve fitting
  // in the third step").
  ofs_.observe(sample);
}

}  // namespace qross::core
