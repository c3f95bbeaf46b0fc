// Adjacency/model equivalence: SparseAdjacency-backed energies, flip
// deltas, and post-flip fields must match the QuboModel reference
// bit-for-bit (same accumulation order) on random dense, random sparse, and
// the paper-workload MVC / TSP-formulation models.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "problems/mvc/mvc.hpp"
#include "problems/tsp/formulation.hpp"
#include "problems/tsp/generators.hpp"
#include "qubo/incremental.hpp"
#include "qubo/model.hpp"
#include "qubo/sparse.hpp"

namespace qross::qubo {
namespace {

QuboModel random_model(std::size_t n, std::uint64_t seed, double density) {
  Rng rng(seed);
  QuboModel model(n);
  model.set_offset(rng.uniform(-5.0, 5.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (rng.uniform() < density) {
        model.add_term(i, j, rng.uniform(-10.0, 10.0));
      }
    }
  }
  return model;
}

/// Flip delta straight from the coefficients, in the order of the O(n)
/// loop QuboModel::flip_delta once ran: the linear term, then every set
/// variable j != i ascending.
double reference_flip_delta(const QuboModel& model, const Bits& x,
                            std::size_t i) {
  double field = model.coefficient(i, i);
  for (std::size_t j = 0; j < model.num_vars(); ++j) {
    if (j != i && x[j] != 0) field += model.coefficient(i, j);
  }
  return x[i] == 0 ? field : -field;
}

Bits random_bits(std::size_t n, Rng& rng) {
  Bits x(n);
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  return x;
}

/// The full equivalence property checked for one model.
void expect_equivalent(const QuboModel& model, std::uint64_t seed) {
  const std::size_t n = model.num_vars();
  const SparseAdjacencyPtr adj = SparseAdjacency::build(model);

  // Structural summaries.
  EXPECT_EQ(adj->num_vars(), n);
  EXPECT_DOUBLE_EQ(adj->offset(), model.offset());
  EXPECT_EQ(adj->num_nonzeros(), model.num_nonzeros());
  EXPECT_DOUBLE_EQ(adj->max_abs_coefficient(), model.max_abs_coefficient());
  std::size_t total_degree = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(adj->diagonal(i), model.coefficient(i, i));
    total_degree += adj->degree(i);
    const auto neighbors = adj->neighbors(i);
    const auto weights = adj->weights(i);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      EXPECT_NE(neighbors[k], i);
      EXPECT_DOUBLE_EQ(weights[k], model.coefficient(i, neighbors[k]));
      if (k > 0) {
        EXPECT_LT(neighbors[k - 1], neighbors[k]);
      }
    }
  }
  EXPECT_EQ(total_degree, 2 * adj->num_interactions());

  Rng rng(seed);
  IncrementalEvaluator eval(adj);
  for (int rep = 0; rep < 16; ++rep) {
    const Bits x = random_bits(n, rng);
    // Direct O(nnz) evaluation matches the model's own sum exactly.
    EXPECT_DOUBLE_EQ(adj->energy(x), model.energy(x));
    eval.set_state(x);
    EXPECT_DOUBLE_EQ(eval.energy(), model.energy(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(adj->flip_delta(x, i),
                       reference_flip_delta(model, x, i));
      // Post-set_state local fields reproduce the reference bit-for-bit.
      EXPECT_DOUBLE_EQ(eval.flip_delta(i), reference_flip_delta(model, x, i));
    }
    // A random flip trajectory stays consistent with full recomputation
    // (incremental accumulation order differs, so tolerance not identity).
    for (int step = 0; step < 64 && n > 0; ++step) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(n));
      const double predicted = eval.flip_delta(i);
      EXPECT_NEAR(predicted, reference_flip_delta(model, eval.state(), i),
                  1e-9);
      eval.apply_flip(i);
      EXPECT_NEAR(eval.energy(), model.energy(eval.state()), 1e-6);
      EXPECT_NEAR(eval.energy(), adj->energy(eval.state()), 1e-6);
    }
  }
}

TEST(SparseEquivalence, RandomDenseModels) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_equivalent(random_model(24, 100 + seed, 0.9), seed);
  }
}

TEST(SparseEquivalence, RandomSparseModels) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    expect_equivalent(random_model(48, 200 + seed, 0.05), seed);
  }
}

TEST(SparseEquivalence, MvcPenaltyModel) {
  const auto instance = mvc::generate_random_mvc(40, 0.12, 7);
  expect_equivalent(instance.to_qubo(2.0), 7);
}

TEST(SparseEquivalence, TspFormulationModel) {
  const auto instance = tsp::generate_uniform(7, 0x5EED);
  const auto problem = tsp::build_tsp_problem(instance);
  expect_equivalent(problem.to_qubo(25.0), 3);
}

TEST(SparseEquivalence, EmptyAndDiagonalOnlyModels) {
  expect_equivalent(QuboModel(0), 1);
  QuboModel diag(5);
  diag.set_offset(1.25);
  for (std::size_t i = 0; i < 5; ++i) diag.add_term(i, i, 0.5 * (i + 1));
  expect_equivalent(diag, 2);
  EXPECT_EQ(SparseAdjacency::build(diag)->num_interactions(), 0u);
}

TEST(SparseEquivalence, AdjacencyIsSharedNotCopied) {
  const QuboModel model = random_model(16, 42, 0.3);
  const SparseAdjacencyPtr adj = SparseAdjacency::build(model);
  IncrementalEvaluator a(adj);
  IncrementalEvaluator b(adj);
  EXPECT_EQ(a.adjacency().get(), b.adjacency().get());
  EXPECT_EQ(a.adjacency().get(), adj.get());
  // Evaluators over the same adjacency stay independent in state.
  Rng rng(9);
  const Bits xa = random_bits(16, rng);
  const Bits xb = random_bits(16, rng);
  a.set_state(xa);
  b.set_state(xb);
  EXPECT_DOUBLE_EQ(a.energy(), model.energy(xa));
  EXPECT_DOUBLE_EQ(b.energy(), model.energy(xb));
}

TEST(SparseEquivalence, SparsityStatsOnPaperWorkloads) {
  // MVC: one interaction per edge; density falls with graph sparsity.
  const auto instance = mvc::generate_random_mvc(60, 0.08, 11);
  const auto adj = SparseAdjacency::build(instance.to_qubo(2.0));
  EXPECT_EQ(adj->num_interactions(), instance.edges().size());
  EXPECT_LT(adj->density(), 0.25);
  // TSP penalty QUBO: O(n^3) of the O(n^4) dense entries.
  const auto tsp_instance = tsp::generate_uniform(8, 0xACE);
  const auto tsp_adj = SparseAdjacency::build(
      tsp::build_tsp_problem(tsp_instance).to_qubo(25.0));
  EXPECT_LT(tsp_adj->density(), 0.5);
}

}  // namespace
}  // namespace qross::qubo
