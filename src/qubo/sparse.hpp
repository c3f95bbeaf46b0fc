#pragma once

// Compressed-sparse-row adjacency view of a QuboModel.
//
// The paper's workloads are structurally sparse: an MVC QUBO has one
// quadratic term per graph edge, and the TSP penalty formulation has
// O(n^3) nonzeros out of O(n^4) dense entries.  SparseAdjacency stores, per
// variable, the list of neighbours it actually interacts with:
//
//   * diag_[i]            — the linear coefficient q(i, i);
//   * cols_/weights_ rows — the symmetrised off-diagonal weights w(i, j)
//                           (each i<j nonzero appears in both row i and
//                           row j), columns sorted ascending.
//
// The structure is immutable and shared by shared_ptr: one adjacency per
// solve call, however many replicas / chains / worker threads evaluate on
// it.  It is built from QuboModel::for_each_term, and energies accumulate
// in that same row-major order, so energy() agrees with QuboModel::energy
// to the last bit.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "qubo/model.hpp"

namespace qross::qubo {

class SparseAdjacency {
 public:
  /// Builds the symmetrised CSR form of `model` (O(n + nnz), done once per
  /// solve call).  The adjacency keeps no reference to the model.
  explicit SparseAdjacency(const QuboModel& model);

  /// Convenience: build and wrap in the shared_ptr every consumer holds.
  static std::shared_ptr<const SparseAdjacency> build(const QuboModel& model) {
    return std::make_shared<const SparseAdjacency>(model);
  }

  std::size_t num_vars() const { return n_; }
  double offset() const { return offset_; }

  /// Linear (diagonal) coefficient of variable i.
  double diagonal(std::size_t i) const { return diag_[i]; }

  /// Number of variables interacting with i.
  std::size_t degree(std::size_t i) const {
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Neighbour indices of variable i, ascending.
  std::span<const std::uint32_t> neighbors(std::size_t i) const {
    return {cols_.data() + row_ptr_[i], degree(i)};
  }

  /// Symmetrised weights aligned with neighbors(i).
  std::span<const double> weights(std::size_t i) const {
    return {weights_.data() + row_ptr_[i], degree(i)};
  }

  /// Number of distinct interacting pairs (i < j with nonzero weight).
  std::size_t num_interactions() const { return cols_.size() / 2; }

  /// Structural nonzeros in upper-triangular form: nonzero diagonal entries
  /// plus num_interactions().  Matches QuboModel::num_nonzeros().
  std::size_t num_nonzeros() const { return num_nonzeros_; }

  /// num_nonzeros() over the n(n+1)/2 possible upper-triangular entries.
  double density() const;

  /// Largest absolute coefficient (diagonal or interaction).
  double max_abs_coefficient() const { return max_abs_coefficient_; }

  /// Full energy evaluation, O(n + nnz).
  double energy(std::span<const std::uint8_t> x) const;

  /// Energy change from flipping bit i in state x, O(deg(i)).
  double flip_delta(std::span<const std::uint8_t> x, std::size_t i) const;

 private:
  std::size_t n_ = 0;
  double offset_ = 0.0;
  std::size_t num_nonzeros_ = 0;
  double max_abs_coefficient_ = 0.0;
  std::vector<std::size_t> row_ptr_;    // n + 1 entries
  std::vector<std::uint32_t> cols_;     // 2 * num_interactions entries
  std::vector<double> weights_;         // aligned with cols_
  std::vector<double> diag_;            // n entries
};

using SparseAdjacencyPtr = std::shared_ptr<const SparseAdjacency>;

}  // namespace qross::qubo
