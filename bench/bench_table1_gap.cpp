// Reproduces paper Table 1: normalised optimality gap at trial #3 and
// trial #20 for {DA, Qbsolv} x {QROSS, TPE, BO, Random} x {Synthetic,
// TSPLIB}.  Reuses the cached trajectories produced by the Fig. 3 / Fig. 4
// benches where available and generates the Qbsolv rows (with a surrogate
// trained on Qbsolv data, as in the paper's §5.3 generalisation study).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>

#include "common/csv.hpp"
#include "harness/experiments.hpp"

using namespace qross;
using namespace qross::bench;

int main() {
  const ExperimentConfig config = default_config();
  const Cache cache;

  // Trial indices reported by the paper; clamp for fast mode, and label
  // the columns with the trials actually shown.
  const std::size_t t3 = std::min<std::size_t>(3, config.trials) - 1;
  const std::size_t t20 = config.trials - 1;
  const std::string early = "#" + std::to_string(t3 + 1);
  const std::string late = "#" + std::to_string(t20 + 1);

  std::printf("== Table 1: optimality gap (normalised) at trials %s / %s ==\n",
              early.c_str(), late.c_str());
  if (config.fast) std::printf("[FAST MODE]\n");
  std::printf("\n");

  const Method methods[] = {Method::kQross, Method::kTpe, Method::kBo,
                            Method::kRandom};
  CsvTable table({"solver", "method", "synthetic_" + early,
                  "synthetic_" + late, "tsplib_" + early, "tsplib_" + late});
  for (const SolverKind solver : {SolverKind::kDa, SolverKind::kQbsolv}) {
    for (const Method method : methods) {
      const GapSeries synthetic = get_or_run_comparison(
          cache, method, solver, solver, kSyntheticTestSet, config);
      const GapSeries tsplib = get_or_run_comparison(
          cache, method, solver, solver, kTsplibTestSet, config);
      table.add_row(std::vector<std::string>{
          solver_label(solver), method_label(method),
          format_double(100.0 * synthetic.mean[t3], 1) + "%",
          format_double(100.0 * synthetic.mean[t20], 1) + "%",
          format_double(100.0 * tsplib.mean[t3], 1) + "%",
          format_double(100.0 * tsplib.mean[t20], 1) + "%"});
    }
  }
  table.write_pretty(std::cout);

  std::printf("\nCheck (paper Table 1 shape, trials #3 / #20 at full size):\n"
              "QROSS has the lowest %s gap in each block and remains lowest\n"
              "or tied at %s; out-of-distribution (tsplib) gaps exceed\n"
              "synthetic gaps per method.\n",
              early.c_str(), late.c_str());
  return 0;
}
