#pragma once

// The seed's dense evaluator (symmetrised n x n matrix copied per replica,
// O(n) apply_flip): kept as the baseline the sparse CSR path is measured
// against, shared by bench_micro_perf and bench_service_json.

#include <cstddef>
#include <vector>

#include "qubo/model.hpp"

namespace qross::bench {

class DenseEvaluator {
 public:
  explicit DenseEvaluator(const qubo::QuboModel& model)
      : n_(model.num_vars()),
        offset_(model.offset()),
        weights_(n_ * n_, 0.0),
        x_(n_, 0),
        fields_(n_, 0.0) {
    model.for_each_term([&](std::size_t i, std::size_t j, double w) {
      weights_[i * n_ + j] = w;
      weights_[j * n_ + i] = w;
    });
    set_state(x_);
  }

  void set_state(const qubo::Bits& x) {
    x_ = x;
    energy_ = offset_;
    for (std::size_t i = 0; i < n_; ++i) {
      const double* row = weights_.data() + i * n_;
      double field = row[i];
      for (std::size_t j = 0; j < n_; ++j) {
        if (j != i && x_[j] != 0) field += row[j];
      }
      fields_[i] = field;
      if (x_[i] != 0) {
        energy_ += row[i];
        for (std::size_t j = i + 1; j < n_; ++j) {
          if (x_[j] != 0) energy_ += row[j];
        }
      }
    }
  }

  double flip_delta(std::size_t i) const {
    return x_[i] == 0 ? fields_[i] : -fields_[i];
  }

  void apply_flip(std::size_t i) {
    energy_ += flip_delta(i);
    const double sign = x_[i] == 0 ? 1.0 : -1.0;
    x_[i] ^= 1;
    const double* row = weights_.data() + i * n_;
    for (std::size_t j = 0; j < n_; ++j) {
      if (j != i) fields_[j] += sign * row[j];
    }
  }

  double energy() const { return energy_; }

 private:
  std::size_t n_;
  double offset_;
  std::vector<double> weights_;
  qubo::Bits x_;
  std::vector<double> fields_;
  double energy_ = 0.0;
};

}  // namespace qross::bench
