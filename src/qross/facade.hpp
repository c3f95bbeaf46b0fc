#pragma once

// High-level QROSS facade: one object that owns the trained surrogate and
// turns "tune this TSP instance on that solver" into a single call.  This
// wraps the full pipeline (MVODM preparation, feature extraction, strategy
// context, composed proposal schedule, solver session) behind the API most
// applications want; the lower-level pieces remain available for custom
// workflows.
//
// tune() runs its trials on core::run_tuning_loop, the one trial loop (see
// session.hpp).  The facade adds only what is its own: the strategy for the
// mode, routing through a SolveService, and an observer that decodes each
// trial's best feasible tour, keeps the best one and reports on_trial.
// SubmitTune, TuneService, `qross_cli tune` and the paper benches all tune
// through this call.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "problems/tsp/instance.hpp"
#include "qross/session.hpp"
#include "qross/strategies.hpp"
#include "solvers/solver.hpp"
#include "surrogate/dataset.hpp"
#include "surrogate/model.hpp"

namespace qross::service {
class SolveService;
}  // namespace qross::service

namespace qross::core {

/// Which proposal strategy drives the session (paper §3.4 / §4.2).  The
/// default is the paper's composed benchmark mixture; the pure strategies
/// are selectable individually (e.g. over the wire).
enum class TuneStrategyKind : std::uint8_t {
  composed = 0,  ///< MFS, then PBS at the configured targets, then OFS
  mfs = 1,       ///< minimum-expected-fitness proposal every trial
  pbs = 2,       ///< Pf-target proposal every trial (see pf_target)
  ofs = 3,       ///< online sigmoid fitting from trial 0
};

const char* to_string(TuneStrategyKind kind);

/// Per-trial progress report: the probed A, the batch summary the surrogate
/// is trained to predict, and the best feasible length so far.
struct TuneTrialEvent {
  std::size_t index = 0;  ///< 0-based trial number
  std::size_t total = 0;  ///< the session's trial budget
  double relaxation_parameter = 0.0;
  double pf = 0.0;
  double energy_avg = 0.0;
  double energy_std = 0.0;
  /// Best feasible ORIGINAL-metric length after this trial; +inf until the
  /// first feasible solution appears.
  double best_length = std::numeric_limits<double>::infinity();
  bool feasible = false;  ///< any feasible solution seen so far
};

using TuneProgressFn = std::function<void(const TuneTrialEvent&)>;

struct TuneOptions {
  /// Number of solver calls allowed for the instance.
  std::size_t trials = 10;
  /// Relaxation-parameter search box (prepared-instance units).
  double a_min = 1.0;
  double a_max = 100.0;
  std::uint64_t seed = 1;
  /// Composed-strategy configuration (PBS targets, risk aversion, ...).
  ComposedStrategy::Config strategy;
  /// When set (borrowed, must outlive the call), every trial's solver call
  /// is routed through this SolveService, so concurrent and repeated tuning
  /// sessions share its result cache: re-tuning an instance with the same
  /// seed replays from cached batches without invoking the solver.  Null =
  /// direct synchronous calls (the default).
  service::SolveService* service = nullptr;

  /// Proposal strategy for the session.
  TuneStrategyKind mode = TuneStrategyKind::composed;
  /// Target feasibility probability when mode == pbs.
  double pf_target = 0.8;
  /// When set (borrowed), strategies query this evaluator instead of the
  /// tuner's own surrogate — the serving layer passes the cross-session
  /// batching combiner here.  Any conforming evaluator is bit-identical to
  /// the direct surrogate, so results do not depend on this choice.
  const surrogate::SurrogateEvaluator* evaluator = nullptr;
  /// Cooperative cancellation: checked between trials and threaded into
  /// every solver call, so a signalled session stops within one sweep and
  /// returns with `TuneOutcome::cancelled` set.  Inert by default.
  solvers::StopToken stop;
  /// Invoked after every completed trial (on the tuning thread).  Null by
  /// default.
  TuneProgressFn on_trial;
  /// Attribution forwarded to SubmitOptions when routing through `service`:
  /// admission quotas / fair share (client_id) and trace stitching
  /// (trace_id) then apply to the session's probe jobs.
  std::string client_id;
  std::uint64_t trace_id = 0;
};

struct TuneOutcome {
  /// Best tour found, in original-instance city indices; empty if no trial
  /// produced a feasible solution.
  tsp::Tour best_tour;
  /// Its length on the ORIGINAL distance matrix; +inf if infeasible.
  double best_length = 0.0;
  /// Relaxation parameter of the winning trial (prepared units).
  double best_parameter = 0.0;
  /// Per-trial history: (A, Pf, best-so-far original length).
  struct Trial {
    double relaxation_parameter = 0.0;
    double pf = 0.0;
    double best_length_so_far = 0.0;
  };
  std::vector<Trial> trials;
  /// True when the session's stop token fired: the trial budget was not
  /// exhausted and `trials` holds only the completed prefix.
  bool cancelled = false;

  bool feasible() const { return !best_tour.empty(); }
};

class QrossTuner {
 public:
  /// Takes ownership of a trained surrogate.
  explicit QrossTuner(surrogate::SolverSurrogate surrogate,
                      solvers::SolveOptions solve_options = {});

  /// Trains a surrogate from a history of instances and wraps it.
  static QrossTuner fit(const std::vector<tsp::TspInstance>& history,
                        solvers::SolverPtr solver,
                        const solvers::SolveOptions& solve_options,
                        const surrogate::SweepConfig& sweep = {},
                        const surrogate::SurrogateConfig& config = {});

  /// Loads a previously saved tuner (surrogate + solve options).
  static QrossTuner load(std::istream& is);
  void save(std::ostream& os) const;

  const surrogate::SolverSurrogate& surrogate() const { return surrogate_; }

  /// Proposes a relaxation parameter for `instance` WITHOUT calling the
  /// solver: the minimum-fitness proposal, or the Pf-target proposal when
  /// `pf_target` is given (paper §3.4).
  double propose(const tsp::TspInstance& instance,
                 std::optional<double> pf_target = std::nullopt,
                 const TuneOptions& options = {}) const;

  /// Full tuning session: `options.trials` solver calls steered by the
  /// composed strategy; returns the best decoded tour.
  TuneOutcome tune(const tsp::TspInstance& instance,
                   const solvers::SolverPtr& solver,
                   const TuneOptions& options = {}) const;

 private:
  surrogate::SolverSurrogate surrogate_;
  solvers::SolveOptions solve_options_;
};

}  // namespace qross::core
