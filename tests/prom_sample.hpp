#pragma once

// Reads one sample out of a Prometheus text exposition, so tests can check
// that the scrape and the typed metrics report the same numbers.

#include <optional>
#include <sstream>
#include <string>

namespace qross::testing {

/// The value of the sample line whose name (including any `{labels}`) is
/// exactly `sample`, or nullopt when the exposition has no such line.
inline std::optional<double> prom_sample(const std::string& text,
                                         const std::string& sample) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > sample.size() && line.starts_with(sample) &&
        line[sample.size()] == ' ') {
      return std::stod(line.substr(sample.size() + 1));
    }
  }
  return std::nullopt;
}

}  // namespace qross::testing
