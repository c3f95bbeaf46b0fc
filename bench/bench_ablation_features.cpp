// Design ablation (ours; see EXPERIMENTS.md): how much does the graph
// feature descriptor contribute to surrogate accuracy?  Trains three
// surrogates on the same DA dataset with progressively poorer features —
// full 24-dim descriptor, distance-moments-only, and size-only — and
// compares their Pf / energy prediction error on the held-out synthetic
// test instances (ground truth measured with fresh solver sweeps).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/csv.hpp"
#include "harness/experiments.hpp"
#include "solvers/batch_runner.hpp"
#include "surrogate/pipeline.hpp"

using namespace qross;
using namespace qross::bench;

namespace {

enum class FeatureSet { kFull, kMomentsOnly, kSizeOnly };

const char* feature_set_label(FeatureSet set) {
  switch (set) {
    case FeatureSet::kFull:
      return "full(24)";
    case FeatureSet::kMomentsOnly:
      return "moments(7)";
    case FeatureSet::kSizeOnly:
      return "size(2)";
  }
  return "?";
}

/// Masks features outside the chosen subset to zero; the standardiser then
/// treats them as constants, so they carry no information.
std::array<double, surrogate::kNumTspFeatures> mask_features(
    const std::array<double, surrogate::kNumTspFeatures>& features,
    FeatureSet set) {
  auto masked = features;
  auto keep = [&](std::size_t index) {
    if (set == FeatureSet::kFull) return true;
    if (set == FeatureSet::kMomentsOnly) {
      return index <= 6;  // n, log n, mean, std, min, max, cv
    }
    return index <= 1;  // n, log n
  };
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (!keep(i)) masked[i] = 0.0;
  }
  return masked;
}

surrogate::Dataset mask_dataset(const surrogate::Dataset& dataset,
                                FeatureSet set) {
  surrogate::Dataset masked = dataset;
  for (auto& row : masked.rows) row.features = mask_features(row.features, set);
  return masked;
}

}  // namespace

int main() {
  ExperimentConfig config = default_config();
  const Cache cache;

  std::printf("== Ablation: surrogate feature sets ==\n\n");

  const auto dataset = get_or_build_dataset(cache, SolverKind::kDa, config);

  // Ground truth on held-out instances: a fresh sweep per test instance.
  struct Truth {
    std::array<double, surrogate::kNumTspFeatures> features;
    double anchor;
    std::vector<solvers::SolverSample> samples;
  };
  std::vector<Truth> truths;
  const auto test_instances = synthetic_test_instances(config);
  const std::size_t probe_count = config.fast ? 2 : 5;
  for (std::size_t i = 0; i < std::min<std::size_t>(probe_count,
                                                    test_instances.size());
       ++i) {
    const surrogate::PreparedTspInstance prepared(test_instances[i]);
    Truth truth;
    truth.features = surrogate::extract_features(prepared.prepared());
    truth.anchor = surrogate::scale_anchor(truth.features);
    auto options = make_solve_options(SolverKind::kDa, 0xAB1 + i);
    solvers::BatchRunner runner(prepared.problem(),
                                make_solver(SolverKind::kDa), options);
    auto sweep = config.sweep;
    sweep.slope_points = 6;
    sweep.plateau_points = 1;
    truth.samples = surrogate::sweep_instance(
        runner, prepared.prepared().mean_distance(), sweep);
    truths.push_back(std::move(truth));
  }

  CsvTable table({"feature_set", "pf_mae", "energy_rel_mae", "rows"});
  for (const FeatureSet set :
       {FeatureSet::kFull, FeatureSet::kMomentsOnly, FeatureSet::kSizeOnly}) {
    const auto masked = mask_dataset(dataset, set);
    surrogate::SolverSurrogate model;
    model.train(masked);

    double pf_error = 0.0;
    double energy_error = 0.0;
    std::size_t count = 0;
    for (const auto& truth : truths) {
      const auto features = mask_features(truth.features, set);
      for (const auto& sample : truth.samples) {
        const auto prediction = model.predict(features, truth.anchor,
                                              sample.relaxation_parameter);
        pf_error += std::abs(prediction.pf - sample.stats.pf);
        // Normalise by the instance's scale anchor, not by Eavg itself:
        // on the left plateau Eavg is near zero and a per-point relative
        // error would be dominated by those denominators.
        energy_error +=
            std::abs(prediction.energy_avg - sample.stats.energy_avg) /
            truth.anchor;
        ++count;
      }
    }
    table.add_row(std::vector<std::string>{
        feature_set_label(set),
        format_double(pf_error / double(count), 4),
        format_double(energy_error / double(count), 4),
        std::to_string(masked.rows.size())});
  }
  table.write_pretty(std::cout);

  std::printf("\nCheck: the full descriptor should match or beat the reduced\n"
              "sets.  Note: on this scaled-down size range (8-14 cities, all\n"
              "instances pre-normalised to a common distance scale) much of\n"
              "the per-instance variation is already captured by size alone,\n"
              "so the reduced sets stay competitive on Pf; the descriptor's\n"
              "value grows with instance diversity (cf. Fig. 4's\n"
              "out-of-distribution setting).\n");
  return 0;
}
