// Tests for src/qubo: model energy, incremental evaluation, the penalty
// builder, and batch statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "io/binary.hpp"
#include "io/snapshot.hpp"
#include "qubo/batch.hpp"
#include "qubo/builder.hpp"
#include "qubo/incremental.hpp"
#include "qubo/model.hpp"
#include "qubo/sparse.hpp"
#include "service/fingerprint.hpp"

namespace qross::qubo {
namespace {

QuboModel random_model(std::size_t n, std::uint64_t seed, double density = 0.7) {
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

Bits random_bits(std::size_t n, Rng& rng) {
  Bits x(n);
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  return x;
}

/// Reference energy computed straight from the definition.
double brute_energy(const QuboModel& model, const Bits& x) {
  double e = model.offset();
  for (std::size_t i = 0; i < model.num_vars(); ++i) {
    for (std::size_t j = i; j < model.num_vars(); ++j) {
      if (x[i] != 0 && x[j] != 0) e += model.coefficient(i, j);
    }
  }
  return e;
}

TEST(QuboModel, EmptyModelIsOffset) {
  QuboModel model(3);
  model.set_offset(2.5);
  const Bits x{1, 0, 1};
  EXPECT_DOUBLE_EQ(model.energy(x), 2.5);
}

TEST(QuboModel, LinearAndQuadraticTerms) {
  QuboModel model(2);
  model.add_term(0, 0, 1.0);   // linear x0
  model.add_term(1, 1, -2.0);  // linear x1
  model.add_term(0, 1, 4.0);   // interaction
  EXPECT_DOUBLE_EQ(model.energy(Bits{0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(model.energy(Bits{1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(model.energy(Bits{0, 1}), -2.0);
  EXPECT_DOUBLE_EQ(model.energy(Bits{1, 1}), 3.0);
}

TEST(QuboModel, AddTermCanonicalisesIndices) {
  QuboModel model(3);
  model.add_term(2, 0, 1.5);
  model.add_term(0, 2, 2.5);
  EXPECT_DOUBLE_EQ(model.coefficient(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(model.coefficient(2, 0), 4.0);
}

TEST(QuboModel, EnergyMatchesBruteForceOnRandomModels) {
  Rng rng(99);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const QuboModel model = random_model(8, seed);
    for (int rep = 0; rep < 10; ++rep) {
      const Bits x = random_bits(8, rng);
      EXPECT_NEAR(model.energy(x), brute_energy(model, x), 1e-9);
    }
  }
}

TEST(QuboModel, AdjacencyFlipDeltaMatchesEnergyDifference) {
  Rng rng(7);
  const QuboModel model = random_model(10, 4);
  const SparseAdjacency adjacency(model);
  for (int rep = 0; rep < 50; ++rep) {
    Bits x = random_bits(10, rng);
    const auto i = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{10}));
    const double before = model.energy(x);
    const double delta = adjacency.flip_delta(x, i);
    x[i] ^= 1;
    EXPECT_NEAR(before + delta, model.energy(x), 1e-9);
  }
}

TEST(QuboModel, AddScaledOntoEmptyModelMultipliesEnergy) {
  Rng rng(5);
  const QuboModel model = random_model(6, 11);
  const Bits x = random_bits(6, rng);
  QuboModel scaled(6);
  scaled.add_scaled(model, 2.5);
  EXPECT_NEAR(scaled.energy(x), 2.5 * model.energy(x), 1e-9);
}

TEST(QuboModel, AddScaledComposesEnergies) {
  Rng rng(6);
  QuboModel a = random_model(6, 21);
  const QuboModel b = random_model(6, 22);
  const Bits x = random_bits(6, rng);
  const double ea = a.energy(x);
  const double eb = b.energy(x);
  a.add_scaled(b, 3.0);
  EXPECT_NEAR(a.energy(x), ea + 3.0 * eb, 1e-9);
}

TEST(QuboModel, MaxAbsCoefficient) {
  QuboModel model(3);
  model.add_term(0, 1, -7.0);
  model.add_term(2, 2, 3.0);
  EXPECT_DOUBLE_EQ(model.max_abs_coefficient(), 7.0);
}

TEST(QuboModel, NumNonzeros) {
  QuboModel model(4);
  EXPECT_EQ(model.num_nonzeros(), 0u);
  model.add_term(0, 1, 1.0);
  model.add_term(2, 2, -1.0);
  model.add_term(0, 1, -1.0);  // cancels to zero
  EXPECT_EQ(model.num_nonzeros(), 1u);
}

TEST(QuboModel, RejectsOutOfRange) {
  QuboModel model(3);
  EXPECT_THROW(model.add_term(0, 3, 1.0), std::invalid_argument);
  EXPECT_THROW(model.coefficient(3, 0), std::invalid_argument);
  EXPECT_THROW(model.energy(Bits{1, 0}), std::invalid_argument);
}

// --- canonical form -------------------------------------------------------

using TermList = std::vector<std::tuple<std::size_t, std::size_t, double>>;

/// The model's canonical walk, collected.
TermList terms_of(const QuboModel& model) {
  TermList terms;
  model.for_each_term([&](std::size_t i, std::size_t j, double w) {
    terms.emplace_back(i, j, w);
  });
  return terms;
}

/// Same keys in the same order, with bit-identical weights.
void expect_same_terms(const TermList& a, const TermList& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(std::get<0>(a[k]), std::get<0>(b[k]));
    EXPECT_EQ(std::get<1>(a[k]), std::get<1>(b[k]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::get<2>(a[k])),
              std::bit_cast<std::uint64_t>(std::get<2>(b[k])));
  }
}

TEST(QuboModel, RepeatedAndOutOfOrderTermsSumInCallOrder) {
  QuboModel model(4);
  model.add_term(3, 3, 0.1);
  model.add_term(2, 1, 0.5);
  model.add_term(0, 3, 1.0);
  model.add_term(3, 3, 0.2);
  model.add_term(0, 0, -1.0);
  model.add_term(1, 2, 0.25);
  model.add_term(3, 3, 0.3);
  model.add_term(3, 0, 1e-17);
  // Each key sums from +0.0 in call order: (0.1 + 0.2) + 0.3 rounds to
  // 0.6000000000000001, not to the 0.6 of 0.1 + (0.2 + 0.3), and the tiny
  // second weight on (0, 3) is absorbed by plain double addition.
  const double diag = (0.0 + 0.1 + 0.2) + 0.3;
  ASSERT_NE(diag, 0.1 + (0.2 + 0.3));
  expect_same_terms(terms_of(model), {{0, 0, -1.0},
                                      {0, 3, 1.0 + 1e-17},
                                      {1, 2, 0.75},
                                      {3, 3, diag}});
  EXPECT_EQ(model.coefficient(3, 3), diag);
  EXPECT_EQ(model.coefficient(2, 1), 0.75);
  EXPECT_EQ(model.coefficient(1, 3), 0.0);
}

TEST(QuboModel, ReserveRowKeepsAddTermResults) {
  struct Key {
    std::size_t i, j;
    double weight;
  };
  Rng rng(17);
  std::vector<Key> canonical;
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = i; j < 9; ++j) {
      if (rng.uniform() < 0.5) canonical.push_back({i, j, rng.uniform(-3, 3)});
    }
  }
  // The same keys reversed, one key repeated, one pair given as (j, i).
  std::vector<Key> shuffled(canonical.rbegin(), canonical.rend());
  shuffled.push_back(canonical.front());
  std::swap(shuffled[2].i, shuffled[2].j);
  for (const auto* keys : {&canonical, &shuffled}) {
    QuboModel added(9);
    QuboModel reserved(9);
    added.add_term(4, 4, 0.5);
    reserved.add_term(4, 4, 0.5);  // reserving keeps what a row holds
    for (const Key& k : *keys) reserved.reserve_row(std::min(k.i, k.j), 1);
    for (const Key& k : *keys) {
      added.add_term(k.i, k.j, k.weight);
      reserved.add_term(k.i, k.j, k.weight);
    }
    expect_same_terms(terms_of(added), terms_of(reserved));
  }
  QuboModel model(3);
  EXPECT_THROW(model.reserve_row(3, 1), std::invalid_argument);
}

TEST(QuboModel, CancelledKeyIsAbsentFromEveryReader) {
  QuboModel cancelled(3);
  cancelled.add_term(0, 2, 1.5);
  cancelled.add_term(1, 1, 0.1);
  cancelled.add_term(0, 1, 0.375);
  cancelled.add_term(2, 0, -1.5);  // (0, 2) cancels to exactly 0.0
  cancelled.add_term(1, 1, -0.1);  // and so does (1, 1)
  QuboModel clean(3);
  clean.add_term(0, 1, 0.375);

  EXPECT_EQ(cancelled.num_nonzeros(), 1u);
  EXPECT_EQ(terms_of(cancelled), terms_of(clean));
  EXPECT_EQ(cancelled.max_abs_coefficient(), 0.375);
  io::ByteWriter a;
  io::ByteWriter b;
  io::encode_model(a, cancelled);
  io::encode_model(b, clean);
  EXPECT_EQ(a.take(), b.take());
  EXPECT_EQ(service::fingerprint_model(cancelled),
            service::fingerprint_model(clean));
  const SparseAdjacency adjacency(cancelled);
  EXPECT_EQ(adjacency.num_nonzeros(), 1u);
  EXPECT_EQ(adjacency.num_interactions(), 1u);
  EXPECT_EQ(adjacency.degree(2), 0u);
  EXPECT_EQ(adjacency.diagonal(1), 0.0);
}

TEST(QuboModel, ResizeAfterTermsKeepsThem) {
  QuboModel model(3);
  model.set_offset(2.0);
  model.add_term(0, 2, -1.25);
  model.add_term(1, 1, 4.0);
  const auto before = terms_of(model);
  model.resize(3);
  model.resize(6);
  EXPECT_EQ(model.num_vars(), 6u);
  EXPECT_EQ(terms_of(model), before);
  model.add_term(5, 0, 0.5);  // the new variables take terms like any other
  model.add_term(4, 4, 1.0);
  EXPECT_EQ(model.coefficient(0, 5), 0.5);
  EXPECT_EQ(model.energy(Bits{1, 1, 1, 0, 1, 1}), 2.0 - 1.25 + 4.0 + 0.5 + 1.0);
  EXPECT_THROW(model.resize(5), std::invalid_argument);
}

TEST(QuboModel, AddScaledMergesRowsKeyByKey) {
  QuboModel a(3);
  a.add_term(0, 2, 1.0);
  a.add_term(1, 1, 0.1);
  QuboModel b(3);
  b.set_offset(1.0);
  b.add_term(0, 1, 2.0);
  b.add_term(0, 2, -0.5);
  b.add_term(1, 1, 0.2);
  b.add_term(2, 2, 3.0);
  a.add_scaled(b, 2.0);
  const TermList expected{
      {0, 1, 0.0 + 2.0 * 2.0},
      {0, 2, 1.0 + 2.0 * -0.5},
      {1, 1, 0.1 + 2.0 * 0.2},
      {2, 2, 0.0 + 2.0 * 3.0}};
  // (0, 2) cancels to 0.0 and drops out of the walk.
  auto kept = expected;
  kept.erase(kept.begin() + 1);
  EXPECT_EQ(terms_of(a), kept);
  EXPECT_EQ(a.offset(), 2.0);
  a.add_scaled(a, 1.0);  // aliasing: every key doubles
  EXPECT_EQ(a.coefficient(1, 1), 2.0 * (0.1 + 2.0 * 0.2));
  EXPECT_EQ(a.offset(), 4.0);
}

TEST(QuboModel, IsValidAssignment) {
  QuboModel model(2);
  EXPECT_TRUE(is_valid_assignment(model, Bits{0, 1}));
  EXPECT_FALSE(is_valid_assignment(model, Bits{0}));
  EXPECT_FALSE(is_valid_assignment(model, Bits{0, 2}));
}

// --- incremental evaluator ------------------------------------------------

class IncrementalParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IncrementalParam, RandomFlipSequenceStaysConsistent) {
  const std::size_t n = GetParam();
  const QuboModel model = random_model(n, 1000 + n);
  IncrementalEvaluator eval(model);
  Rng rng(n);
  Bits x = random_bits(n, rng);
  eval.set_state(x);
  EXPECT_NEAR(eval.energy(), model.energy(x), 1e-9);
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(n));
    const double predicted = eval.flip_delta(i);
    Bits flipped = eval.state();
    flipped[i] ^= 1;
    EXPECT_NEAR(predicted, model.energy(flipped) - model.energy(eval.state()),
                1e-9);
    eval.apply_flip(i);
    EXPECT_NEAR(eval.energy(), model.energy(eval.state()), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IncrementalParam,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 31));

TEST(Incremental, DoubleFlipIsIdentity) {
  const QuboModel model = random_model(6, 77);
  IncrementalEvaluator eval(model);
  Rng rng(8);
  const Bits x = random_bits(6, rng);
  eval.set_state(x);
  const double before = eval.energy();
  eval.apply_flip(3);
  eval.apply_flip(3);
  EXPECT_NEAR(eval.energy(), before, 1e-9);
  EXPECT_EQ(eval.state(), x);
}

TEST(Incremental, FlipReturnsDelta) {
  const QuboModel model = random_model(5, 13);
  IncrementalEvaluator eval(model);
  const double e0 = eval.energy();
  const double delta = eval.flip(2);
  EXPECT_NEAR(eval.energy(), e0 + delta, 1e-9);
}

// --- constrained problem builder -------------------------------------------

TEST(Builder, PenaltyEqualsSquaredViolation) {
  Rng rng(3);
  ConstrainedProblem problem(6);
  problem.add_constraint({{0, 1, 2}, {1.0, 1.0, 1.0}, 1.0});
  problem.add_constraint({{2, 3, 4, 5}, {1.0, -2.0, 0.5, 1.0}, 0.5});
  for (int rep = 0; rep < 64; ++rep) {
    const Bits x = random_bits(6, rng);
    EXPECT_NEAR(problem.penalty_model().energy(x), problem.violation(x), 1e-9)
        << "violation expansion mismatch";
  }
}

TEST(Builder, QuboEnergyIsObjectivePlusScaledPenalty) {
  Rng rng(4);
  ConstrainedProblem problem(5);
  problem.add_objective_term(0, 1, 2.0);
  problem.add_objective_term(2, 2, -1.0);
  problem.add_objective_offset(0.5);
  problem.add_constraint({{0, 1, 2, 3, 4}, {1, 1, 1, 1, 1}, 2.0});
  for (double a : {0.0, 1.0, 7.5}) {
    const QuboModel qubo = problem.to_qubo(a);
    for (int rep = 0; rep < 32; ++rep) {
      const Bits x = random_bits(5, rng);
      EXPECT_NEAR(qubo.energy(x),
                  problem.objective(x) + a * problem.violation(x), 1e-9);
    }
  }
}

TEST(Builder, FeasibilityMatchesViolation) {
  ConstrainedProblem problem(3);
  problem.add_constraint({{0, 1, 2}, {1, 1, 1}, 1.0});
  EXPECT_TRUE(problem.is_feasible(Bits{1, 0, 0}));
  EXPECT_TRUE(problem.is_feasible(Bits{0, 0, 1}));
  EXPECT_FALSE(problem.is_feasible(Bits{1, 1, 0}));
  EXPECT_FALSE(problem.is_feasible(Bits{0, 0, 0}));
}

TEST(Builder, RejectsMalformedConstraint) {
  ConstrainedProblem problem(3);
  EXPECT_THROW(problem.add_constraint({{0, 1}, {1.0}, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(problem.add_constraint({{5}, {1.0}, 1.0}),
               std::invalid_argument);
}

TEST(Builder, RejectsNonFiniteRelaxation) {
  ConstrainedProblem problem(2);
  EXPECT_THROW(problem.to_qubo(std::nan("")), std::invalid_argument);
}

// --- batch statistics -------------------------------------------------------

TEST(Batch, BestIndexPicksLowestEnergy) {
  SolveBatch batch;
  batch.results = {{Bits{0}, 3.0}, {Bits{1}, -1.0}, {Bits{0}, 2.0}};
  EXPECT_EQ(batch.best_index(), 1u);
}

TEST(Batch, BestIndexThrowsOnEmpty) {
  SolveBatch batch;
  EXPECT_THROW(batch.best_index(), std::invalid_argument);
}

TEST(Batch, EvaluateBatchComputesPaperQuantities) {
  // One-hot constraint over two variables; x = {1,0} and {0,1} feasible.
  ConstrainedProblem problem(2);
  problem.add_objective_term(0, 0, 5.0);
  problem.add_objective_term(1, 1, 3.0);
  problem.add_constraint({{0, 1}, {1, 1}, 1.0});

  SolveBatch batch;
  batch.results.push_back({Bits{1, 0}, 0.0});  // feasible, obj 5
  batch.results.push_back({Bits{0, 1}, 0.0});  // feasible, obj 3
  batch.results.push_back({Bits{1, 1}, 0.0});  // infeasible, obj 8
  batch.results.push_back({Bits{0, 0}, 0.0});  // infeasible, obj 0

  const BatchStats stats = evaluate_batch(problem, batch);
  EXPECT_EQ(stats.batch_size, 4u);
  EXPECT_DOUBLE_EQ(stats.pf, 0.5);
  EXPECT_DOUBLE_EQ(stats.energy_avg, 4.0);  // mean of {5,3,8,0}
  EXPECT_NEAR(stats.energy_std, std::sqrt(8.5), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min_fitness, 3.0);
  ASSERT_TRUE(stats.has_feasible());
  EXPECT_EQ(*stats.best_feasible, (Bits{0, 1}));
}

TEST(Batch, AllInfeasibleYieldsInfiniteFitness) {
  ConstrainedProblem problem(2);
  problem.add_constraint({{0, 1}, {1, 1}, 1.0});
  SolveBatch batch;
  batch.results.push_back({Bits{1, 1}, 0.0});
  const BatchStats stats = evaluate_batch(problem, batch);
  EXPECT_DOUBLE_EQ(stats.pf, 0.0);
  EXPECT_TRUE(std::isinf(stats.min_fitness));
  EXPECT_FALSE(stats.has_feasible());
}

TEST(Batch, EmptyBatch) {
  ConstrainedProblem problem(1);
  const BatchStats stats = evaluate_batch(problem, SolveBatch{});
  EXPECT_EQ(stats.batch_size, 0u);
  EXPECT_FALSE(stats.has_feasible());
}

}  // namespace
}  // namespace qross::qubo
