#pragma once

// The "real-world" evaluation set (paper §5.2).
//
// The paper evaluates on eleven TSPLIB instances with 14 < N < 90.  TSPLIB
// files are not redistributable inside this repository, so we substitute a
// deterministic set of eleven clustered-city instances (see EXPERIMENTS.md,
// "Substitutes"): clustered geometry is out-of-distribution relative to the
// uniform / exponential synthetic training set in both spatial structure
// and size, which is the property §5.2 actually tests.  Each instance is
// materialised through the TSPLIB writer/parser so the on-disk pipeline is
// exercised end to end, and users can swap in genuine TSPLIB files via
// load_tsplib_file.

#include <vector>

#include "problems/tsp/instance.hpp"

namespace qross::tsp {

/// Sizes of the eleven instances.  Scaled down from the paper's 14 < N < 90
/// so that the full benchmark suite runs on one CPU core (see EXPERIMENTS.md,
/// "Scaled-down settings"); still strictly larger than the synthetic
/// training sizes.
std::vector<std::size_t> tsplib_like_sizes();

/// The eleven deterministic clustered instances, round-tripped through the
/// TSPLIB text format.
std::vector<TspInstance> tsplib_like_testset();

/// The same instances as TSPLIB-format text, keyed by instance order.
std::vector<std::string> tsplib_like_testset_text();

}  // namespace qross::tsp
