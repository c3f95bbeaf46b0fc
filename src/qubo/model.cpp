#include "qubo/model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace qross::qubo {

QuboModel::QuboModel(std::size_t num_vars) : rows_(num_vars) {}

void QuboModel::add_term(std::size_t i, std::size_t j, double weight) {
  QROSS_REQUIRE(i < num_vars() && j < num_vars(),
                "QUBO term index out of range");
  if (i > j) std::swap(i, j);
  std::vector<Entry>& row = rows_[i];
  // Builders and the decoder mostly append in column order; only an
  // out-of-order key pays the search and the shift.
  auto at = row.end();
  if (!row.empty() && row.back().col >= j) {
    at = std::partition_point(row.begin(), row.end(),
                              [j](const Entry& t) { return t.col < j; });
    if (at->col == j) {
      at->weight += weight;
      return;
    }
  }
  row.insert(at, Entry{j, 0.0 + weight});  // a new key starts at +0.0
}

void QuboModel::reserve_row(std::size_t i, std::size_t keys) {
  QROSS_REQUIRE(i < num_vars(), "QUBO row index out of range");
  rows_[i].reserve(rows_[i].size() + keys);
}

double QuboModel::coefficient(std::size_t i, std::size_t j) const {
  QROSS_REQUIRE(i < num_vars() && j < num_vars(),
                "QUBO coefficient index out of range");
  if (i > j) std::swap(i, j);
  const std::vector<Entry>& row = rows_[i];
  const auto it = std::partition_point(
      row.begin(), row.end(), [j](const Entry& t) { return t.col < j; });
  return it != row.end() && it->col == j ? it->weight : 0.0;
}

double QuboModel::energy(std::span<const std::uint8_t> x) const {
  QROSS_REQUIRE(x.size() == num_vars(), "assignment size mismatch");
  double e = offset_;
  for_each_term([&](std::size_t i, std::size_t j, double w) {
    if (x[i] != 0 && x[j] != 0) e += w;
  });
  return e;
}

double QuboModel::max_abs_coefficient() const {
  double m = 0.0;
  for_each_term([&](std::size_t, std::size_t, double w) {
    m = std::max(m, std::abs(w));
  });
  return m;
}

std::size_t QuboModel::num_nonzeros() const {
  std::size_t nnz = 0;
  for_each_term([&](std::size_t, std::size_t, double) { ++nnz; });
  return nnz;
}

void QuboModel::resize(std::size_t new_num_vars) {
  QROSS_REQUIRE(new_num_vars >= num_vars(), "resize cannot shrink the model");
  rows_.resize(new_num_vars);
}

void QuboModel::add_scaled(const QuboModel& other, double factor) {
  QROSS_REQUIRE(other.num_vars() == num_vars(),
                "QUBO size mismatch in add_scaled");
  // A merge per row: keys of both models get mine + factor * theirs, keys
  // of `other` alone 0.0 + factor * theirs, as the dense sum did.
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const std::vector<Entry>& theirs = other.rows_[i];
    if (theirs.empty()) continue;
    const std::vector<Entry>& mine = rows_[i];
    std::vector<Entry> merged;
    merged.reserve(mine.size() + theirs.size());
    auto kept = mine.begin();
    for (const Entry& t : theirs) {
      while (kept != mine.end() && kept->col < t.col) merged.push_back(*kept++);
      const bool shared = kept != mine.end() && kept->col == t.col;
      const double base = shared ? (kept++)->weight : 0.0;
      merged.push_back({t.col, base + factor * t.weight});
    }
    merged.insert(merged.end(), kept, mine.end());
    rows_[i] = std::move(merged);
  }
  offset_ += factor * other.offset_;
}

bool is_valid_assignment(const QuboModel& model,
                         std::span<const std::uint8_t> x) {
  if (x.size() != model.num_vars()) return false;
  return std::all_of(x.begin(), x.end(),
                     [](std::uint8_t b) { return b == 0 || b == 1; });
}

}  // namespace qross::qubo
