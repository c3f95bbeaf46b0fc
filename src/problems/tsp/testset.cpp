#include "problems/tsp/testset.hpp"

#include <sstream>

#include "common/rng.hpp"
#include "problems/tsp/generators.hpp"
#include "problems/tsp/tsplib.hpp"

namespace qross::tsp {

std::vector<std::size_t> tsplib_like_sizes() {
  // Eleven sizes spanning the out-of-distribution range; the synthetic
  // training set stays below the smallest of these.  Capped at 20 cities
  // (400 QUBO variables) so the full Digital-Annealer benchmark sweep stays
  // tractable on one CPU core (see EXPERIMENTS.md, "Scaled-down settings").
  return {15, 15, 16, 16, 17, 17, 18, 18, 19, 20, 20};
}

std::vector<std::string> tsplib_like_testset_text() {
  const auto sizes = tsplib_like_sizes();
  std::vector<std::string> texts;
  texts.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ClusteredGenConfig config;
    // Vary the geometry across the set: cluster count and tightness differ
    // per instance, like the mixed geographies of TSPLIB.
    config.min_clusters = 2 + i % 3;
    config.max_clusters = config.min_clusters + 2;
    config.cluster_spread = 0.04 + 0.02 * static_cast<double>(i % 4);
    config.outlier_fraction = 0.10 + 0.05 * static_cast<double>(i % 3);
    TspInstance instance =
        generate_clustered(sizes[i], derive_seed(0x75317531ULL, i), config);
    std::ostringstream out;
    write_tsplib(out, instance);
    texts.push_back(out.str());
  }
  return texts;
}

std::vector<TspInstance> tsplib_like_testset() {
  std::vector<TspInstance> instances;
  for (const auto& text : tsplib_like_testset_text()) {
    instances.push_back(parse_tsplib_string(text));
  }
  return instances;
}

}  // namespace qross::tsp
