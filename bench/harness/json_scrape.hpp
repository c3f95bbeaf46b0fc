#pragma once

// Reads the committed BENCH_*.json baselines for the benches' --check
// gates.  The bench files have fixed schemas written by our own fprintf
// code, so a key scraper is all the JSON the gates need; no parser
// dependency.

#include <string>
#include <vector>

namespace qross::bench {

/// The whole file, or "" when it cannot be read.
std::string slurp(const std::string& path);

/// Every value following `"key": ` in document order — numbers or quoted
/// strings returned as text.
std::vector<std::string> extract_values(const std::string& text,
                                        const std::string& key);

}  // namespace qross::bench
