#include "qubo/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace qross::qubo {

SparseAdjacency::SparseAdjacency(const QuboModel& model)
    : n_(model.num_vars()),
      offset_(model.offset()),
      row_ptr_(n_ + 1, 0),
      diag_(n_, 0.0) {
  QROSS_REQUIRE(n_ < std::numeric_limits<std::uint32_t>::max(),
                "model too large for 32-bit adjacency indices");
  // Two passes of the model's canonical walk: degrees and scalar summaries,
  // then the rows.  Walking (i, j) row-major keeps every row's columns
  // sorted ascending without a later sort.
  model.for_each_term([&](std::size_t i, std::size_t j, double w) {
    ++num_nonzeros_;
    max_abs_coefficient_ = std::max(max_abs_coefficient_, std::abs(w));
    if (i == j) return;
    ++row_ptr_[i + 1];
    ++row_ptr_[j + 1];
  });
  for (std::size_t i = 0; i < n_; ++i) row_ptr_[i + 1] += row_ptr_[i];
  cols_.resize(row_ptr_[n_]);
  weights_.resize(row_ptr_[n_]);
  std::vector<std::size_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  model.for_each_term([&](std::size_t i, std::size_t j, double w) {
    if (i == j) {
      diag_[i] = w;
      return;
    }
    cols_[cursor[i]] = static_cast<std::uint32_t>(j);
    weights_[cursor[i]++] = w;
    cols_[cursor[j]] = static_cast<std::uint32_t>(i);
    weights_[cursor[j]++] = w;
  });
}

double SparseAdjacency::density() const {
  const double upper = static_cast<double>(n_) * static_cast<double>(n_ + 1) / 2.0;
  return upper > 0.0 ? static_cast<double>(num_nonzeros_) / upper : 0.0;
}

double SparseAdjacency::energy(std::span<const std::uint8_t> x) const {
  QROSS_REQUIRE(x.size() == n_, "assignment size mismatch");
  double e = offset_;
  for (std::size_t i = 0; i < n_; ++i) {
    if (x[i] == 0) continue;
    e += diag_[i];
    const std::size_t begin = row_ptr_[i];
    const std::size_t end = row_ptr_[i + 1];
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t j = cols_[k];
      // Count each pair once, from its lower endpoint, in ascending-j order
      // so the accumulation matches QuboModel::energy exactly.
      if (j > i && x[j] != 0) e += weights_[k];
    }
  }
  return e;
}

double SparseAdjacency::flip_delta(std::span<const std::uint8_t> x,
                                   std::size_t i) const {
  QROSS_REQUIRE(x.size() == n_, "assignment size mismatch");
  QROSS_REQUIRE(i < n_, "flip index out of range");
  double field = diag_[i];
  const std::size_t begin = row_ptr_[i];
  const std::size_t end = row_ptr_[i + 1];
  for (std::size_t k = begin; k < end; ++k) {
    if (x[cols_[k]] != 0) field += weights_[k];
  }
  return x[i] == 0 ? field : -field;
}

}  // namespace qross::qubo
