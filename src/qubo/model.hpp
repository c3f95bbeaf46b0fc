#pragma once

// Quadratic Unconstrained Binary Optimisation model:
//
//   E(x) = offset + sum_i q(i,i) x_i + sum_{i<j} q(i,j) x_i x_j,  x in {0,1}^n
//
// Coefficients are stored sparsely in upper-triangular canonical form, one
// column-sorted (j, q(i,j)) list per row i: O(n + nnz).  Adding a term
// (i, j, w) with i > j accumulates into (j, i); the diagonal holds linear
// terms (x_i^2 == x_i).  A constant offset is carried along so that penalty
// expansions A*(a^T x - b)^2 keep their absolute energy scale — important
// because the paper's fitness values are compared across A.  for_each_term
// is the one walk every reader (codec, fingerprint, CSR adjacency) takes,
// so models with equal coefficients are indistinguishable however their
// terms were added.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace qross::qubo {

/// A candidate solution: one bit per variable.
using Bits = std::vector<std::uint8_t>;

class QuboModel {
 public:
  QuboModel() = default;
  explicit QuboModel(std::size_t num_vars);

  std::size_t num_vars() const { return rows_.size(); }
  double offset() const { return offset_; }
  void set_offset(double offset) { offset_ = offset; }
  void add_offset(double delta) { offset_ += delta; }

  /// Accumulates weight onto the (i, j) coefficient (canonicalised to the
  /// upper triangle; i == j is the linear term).  Each key starts at +0.0
  /// and sums its weights in call order; O(1) amortised for an append to
  /// the row, O(log deg + deg) otherwise.
  void add_term(std::size_t i, std::size_t j, double weight);

  /// Makes room for `keys` more keys (i, j >= i) in row i, so that a caller
  /// who knows the row sizes (the wire decoder) appends with no regrowth.
  void reserve_row(std::size_t i, std::size_t keys);

  /// Coefficient in canonical form (i <= j after swap); 0.0 when absent.
  double coefficient(std::size_t i, std::size_t j) const;

  /// Calls f(i, j, w) for every coefficient w with i <= j, row-major (i,
  /// then j, ascending), skipping keys that accumulated to +-0.0.
  template <typename F>
  void for_each_term(F&& f) const {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      for (const Entry& t : rows_[i]) {
        if (t.weight != 0.0) f(i, t.col, t.weight);
      }
    }
  }

  /// Full energy evaluation, O(nnz), summed in for_each_term order.
  double energy(std::span<const std::uint8_t> x) const;

  /// Largest absolute coefficient (used by noise models and scaling).
  double max_abs_coefficient() const;

  /// Number of structurally non-zero coefficients.
  std::size_t num_nonzeros() const;

  /// Grows the variable space to `new_num_vars` (>= current), keeping all
  /// existing coefficients; new variables start with zero terms.  Used by
  /// the slack-variable expansion of inequality constraints.
  void resize(std::size_t new_num_vars);

  /// Adds `other` (same size) coefficient-wise with a multiplier; used to
  /// compose objective + A * penalty without rebuilding either part.
  void add_scaled(const QuboModel& other, double factor);

 private:
  struct Entry {
    std::size_t col;
    double weight;
  };

  double offset_ = 0.0;
  std::vector<std::vector<Entry>> rows_;  // row i: columns j >= i, ascending
};

/// Validates that x has exactly model.num_vars() entries, all 0/1.
bool is_valid_assignment(const QuboModel& model, std::span<const std::uint8_t> x);

}  // namespace qross::qubo
