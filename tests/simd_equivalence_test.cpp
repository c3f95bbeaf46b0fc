// SIMD/scalar equivalence: the ReplicaBlockEvaluator must reproduce the
// scalar IncrementalEvaluator BIT FOR BIT in every lane — energies, flip
// deltas, packed assignments — on both dispatch arms, across random dense,
// random sparse, and the paper-workload MVC / TSP-formulation models
// (mirroring tests/sparse_equivalence_test.cpp).  On top of the evaluator
// contract, the blocked solver kernels must return bit-identical batches
// for scalar vs AVX2 dispatch, for any thread count, and (SA/DA) for any
// batch-size extension of the same seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "golden_fixtures.hpp"
#include "io/binary.hpp"
#include "io/snapshot.hpp"
#include "solvers/analog_noise.hpp"
#include "solvers/delta_scale.hpp"
#include "problems/mvc/mvc.hpp"
#include "problems/tsp/formulation.hpp"
#include "problems/tsp/generators.hpp"
#include "qubo/incremental.hpp"
#include "qubo/model.hpp"
#include "qubo/replica_block.hpp"
#include "qubo/simd.hpp"
#include "qubo/sparse.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/parallel_tempering.hpp"
#include "solvers/qbsolv.hpp"
#include "solvers/simulated_annealer.hpp"
#include "solvers/solver.hpp"
#include "solvers/tabu_search.hpp"
#include "surrogate/pipeline.hpp"

namespace qross::qubo {
namespace {

// Restores the process-wide dispatch choice on scope exit so tests cannot
// leak a forced kind into each other.
class ScopedSimdKind {
 public:
  explicit ScopedSimdKind(SimdKind kind)
      : previous_(active_simd_kind()), installed_(set_simd_kind(kind)) {}
  ~ScopedSimdKind() { set_simd_kind(previous_); }
  SimdKind installed() const { return installed_; }

 private:
  SimdKind previous_;
  SimdKind installed_;
};

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

Bits random_bits(std::size_t n, Rng& rng) {
  Bits x(n);
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  return x;
}

/// Bitwise double equality — stricter than EXPECT_DOUBLE_EQ (4 ULPs): the
/// block evaluator's contract is exact reproduction, sign of zero included.
void expect_bits_eq(double actual, double expected) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << "actual " << actual << " expected " << expected;
}

/// Runs a masked flip trajectory on a block of `lanes` replicas and a bank
/// of per-lane scalar IncrementalEvaluators, checking bitwise agreement of
/// energies, deltas and assignments at every step.
void expect_block_matches_scalar(const QuboModel& model, std::uint64_t seed,
                                 SimdKind kind, std::size_t lanes = 6) {
  const std::size_t n = model.num_vars();
  const SparseAdjacencyPtr adj = SparseAdjacency::build(model);
  ReplicaBlockEvaluator block(adj, lanes, kind);
  ASSERT_EQ(block.kind(), kind);
  EXPECT_EQ(block.lanes(), lanes);
  EXPECT_EQ(block.lane_stride() % ReplicaBlockEvaluator::kGroupLanes, 0u);
  EXPECT_GE(block.lane_stride(), lanes);

  Rng rng(seed);
  std::vector<IncrementalEvaluator> refs(lanes, IncrementalEvaluator(adj));
  for (std::size_t l = 0; l < lanes; ++l) {
    const Bits x = random_bits(n, rng);
    block.set_state(l, x);
    refs[l].set_state(x);
  }
  std::vector<double> deltas(block.lane_stride(), 0.0);
  std::vector<std::uint64_t> accept(block.mask_words(), 0);
  Bits extracted;
  for (int step = 0; step < 96 && n > 0; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(n));
    block.compute_flip_deltas(i, deltas.data());
    for (std::size_t l = 0; l < lanes; ++l) {
      expect_bits_eq(deltas[l], refs[l].flip_delta(i));
      expect_bits_eq(block.flip_delta(l, i), refs[l].flip_delta(i));
    }
    // Random accept mask — including the all-clear and all-set cases.
    std::fill(accept.begin(), accept.end(), 0);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (rng.bernoulli(0.5)) accept[l / 64] |= std::uint64_t{1} << (l % 64);
    }
    block.apply_flips(i, accept.data(), deltas.data());
    for (std::size_t l = 0; l < lanes; ++l) {
      if ((accept[l / 64] >> (l % 64)) & 1u) refs[l].apply_flip(i);
      expect_bits_eq(block.energy(l), refs[l].energy());
      EXPECT_EQ(block.bit(l, i), refs[l].state()[i] != 0);
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    block.extract_state(l, extracted);
    EXPECT_EQ(extracted, refs[l].state());
    for (std::size_t i = 0; i < n; ++i) {
      expect_bits_eq(block.flip_delta(l, i), refs[l].flip_delta(i));
    }
  }
}

void expect_both_arms_match_scalar_reference(const QuboModel& model,
                                             std::uint64_t seed) {
  expect_block_matches_scalar(model, seed, SimdKind::kScalar);
  if (cpu_supports_avx2()) {
    expect_block_matches_scalar(model, seed, SimdKind::kAvx2);
  }
}

TEST(SimdEquivalence, RandomDenseModels) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    expect_both_arms_match_scalar_reference(random_model(24, 100 + seed, 0.9),
                                            seed);
  }
}

TEST(SimdEquivalence, RandomSparseModels) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    expect_both_arms_match_scalar_reference(random_model(48, 200 + seed, 0.05),
                                            seed);
  }
}

TEST(SimdEquivalence, MvcPenaltyModel) {
  const auto instance = mvc::generate_random_mvc(40, 0.12, 7);
  expect_both_arms_match_scalar_reference(instance.to_qubo(2.0), 7);
}

TEST(SimdEquivalence, TspFormulationModel) {
  const auto instance = tsp::generate_uniform(7, 0x5EED);
  const auto problem = tsp::build_tsp_problem(instance);
  expect_both_arms_match_scalar_reference(problem.to_qubo(25.0), 3);
}

TEST(SimdEquivalence, LaneCountsAroundGroupBoundaries) {
  const QuboModel model = random_model(20, 77, 0.4);
  for (const std::size_t lanes : {1u, 3u, 4u, 5u, 8u, 9u, 64u, 65u}) {
    expect_block_matches_scalar(model, lanes, SimdKind::kScalar, lanes);
    if (cpu_supports_avx2()) {
      expect_block_matches_scalar(model, lanes, SimdKind::kAvx2, lanes);
    }
  }
}

TEST(SimdEquivalence, DivergentSingleLaneFlips) {
  // apply_flip_lane (the DA pick step) against per-lane scalar references.
  const QuboModel model = random_model(32, 5, 0.3);
  const SparseAdjacencyPtr adj = SparseAdjacency::build(model);
  const std::size_t lanes = 5;
  for (const SimdKind kind : {SimdKind::kScalar, SimdKind::kAvx2}) {
    if (kind == SimdKind::kAvx2 && !cpu_supports_avx2()) continue;
    ReplicaBlockEvaluator block(adj, lanes, kind);
    std::vector<IncrementalEvaluator> refs(lanes, IncrementalEvaluator(adj));
    Rng rng(11);
    for (std::size_t l = 0; l < lanes; ++l) {
      const Bits x = random_bits(32, rng);
      block.set_state(l, x);
      refs[l].set_state(x);
    }
    for (int step = 0; step < 64; ++step) {
      // Every lane flips its own variable, like the DA inner loop.
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(32));
        block.apply_flip_lane(l, i);
        refs[l].apply_flip(i);
        expect_bits_eq(block.energy(l), refs[l].energy());
      }
    }
    Bits extracted;
    for (std::size_t l = 0; l < lanes; ++l) {
      block.extract_state(l, extracted);
      EXPECT_EQ(extracted, refs[l].state());
    }
  }
}

TEST(SimdEquivalence, Avx2ArmMatchesScalarArmStepForStep) {
  if (!cpu_supports_avx2()) {
    GTEST_SKIP() << "CPU has no AVX2; the scalar arm is the only arm";
  }
  const QuboModel model = random_model(40, 123, 0.25);
  const SparseAdjacencyPtr adj = SparseAdjacency::build(model);
  const std::size_t lanes = 7;
  ReplicaBlockEvaluator scalar(adj, lanes, SimdKind::kScalar);
  ReplicaBlockEvaluator avx2(adj, lanes, SimdKind::kAvx2);
  ASSERT_EQ(scalar.kind(), SimdKind::kScalar);
  ASSERT_EQ(avx2.kind(), SimdKind::kAvx2);
  Rng rng(9);
  for (std::size_t l = 0; l < lanes; ++l) {
    const Bits x = random_bits(40, rng);
    scalar.set_state(l, x);
    avx2.set_state(l, x);
  }
  std::vector<double> ds(scalar.lane_stride()), dv(avx2.lane_stride());
  std::vector<std::uint64_t> accept(scalar.mask_words(), 0);
  for (int step = 0; step < 256; ++step) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(40));
    scalar.compute_flip_deltas(i, ds.data());
    avx2.compute_flip_deltas(i, dv.data());
    std::fill(accept.begin(), accept.end(), 0);
    for (std::size_t l = 0; l < lanes; ++l) {
      expect_bits_eq(dv[l], ds[l]);
      if (rng.bernoulli(0.5)) accept[l / 64] |= std::uint64_t{1} << (l % 64);
    }
    scalar.apply_flips(i, accept.data(), ds.data());
    avx2.apply_flips(i, accept.data(), dv.data());
    for (std::size_t l = 0; l < lanes; ++l) {
      expect_bits_eq(avx2.energy(l), scalar.energy(l));
    }
  }
}

// --- the digital annealer's trial scan, on raw kernel inputs ---------------

/// One trial scan's inputs: fields[i * stride + l] and the packed state
/// bits give lane l's flip delta of variable i; offsets are per lane.
struct TrialScanInputs {
  std::size_t n = 0;
  std::size_t lanes = 0;
  std::size_t stride = 0;
  AlignedVector<double> fields;
  std::vector<std::uint64_t> state;
  std::vector<double> offsets;
  double temperature = 1.0;

  TrialScanInputs(std::size_t num_vars, std::size_t num_lanes)
      : n(num_vars),
        lanes(num_lanes),
        stride((num_lanes + 3) / 4 * 4),
        fields(num_vars * stride, 0.0),
        state(num_vars * ((stride + 63) / 64), 0),
        offsets(num_lanes, 0.0) {}
  /// Lane l's delta of variable i becomes `delta` (bit clear): exactly
  /// when the lane's offset is zero, otherwise up to rounding.
  void set_delta(std::size_t i, std::size_t l, double delta) {
    fields[i * stride + l] = delta + offsets[l];
    state[i * ((stride + 63) / 64) + l / 64] &= ~(std::uint64_t{1} << (l % 64));
  }
};

struct TrialScanOutputs {
  std::vector<std::vector<std::uint32_t>> lists;
  std::vector<std::array<std::uint64_t, 4>> rng_states;
};

TrialScanOutputs run_trial_scan(const detail::BlockKernel& kernel,
                                const TrialScanInputs& in,
                                std::vector<Rng> rngs) {
  std::vector<std::uint32_t> accepted(in.lanes * in.n, 0xFFFFFFFFu);
  std::vector<std::uint32_t> counts(in.lanes, 0xFFFFFFFFu);
  kernel.trial_scan(in.fields.data(), in.state.data(), in.stride,
                    detail::TrialScan{in.n, in.lanes, in.offsets.data(),
                                      in.temperature, rngs.data(),
                                      accepted.data(), counts.data()});
  TrialScanOutputs out;
  for (std::size_t l = 0; l < in.lanes; ++l) {
    EXPECT_LE(counts[l], in.n);
    out.lists.emplace_back(accepted.begin() + l * in.n,
                           accepted.begin() + l * in.n + counts[l]);
    out.rng_states.push_back(rngs[l].state());
  }
  return out;
}

/// Runs the scan on both arms from the same generators and checks that
/// the accepted lists and the generators' final states agree; returns the
/// scalar arm's result.
TrialScanOutputs expect_trial_scan_arms_agree(const TrialScanInputs& in,
                                              const std::vector<Rng>& rngs) {
  const TrialScanOutputs scalar =
      run_trial_scan(detail::scalar_block_kernel(), in, rngs);
  if (const detail::BlockKernel* avx2 = detail::avx2_block_kernel();
      avx2 != nullptr && cpu_supports_avx2()) {
    const TrialScanOutputs vector = run_trial_scan(*avx2, in, rngs);
    for (std::size_t l = 0; l < in.lanes; ++l) {
      EXPECT_EQ(vector.lists[l], scalar.lists[l]) << "lane " << l;
      EXPECT_EQ(vector.rng_states[l], scalar.rng_states[l]) << "lane " << l;
    }
  }
  return scalar;
}

Rng rng_with_state(const std::array<std::uint64_t, 4>& state) {
  Rng rng;
  rng.set_state(state);
  return rng;
}

// Each lane's generator advances by exactly one Rng::next() per variable
// whose delta is not <= 0, whatever the mix of drawing and silent lanes;
// lane counts cover one group, two groups, padding and three chunks.
TEST(SimdEquivalence, TrialScanStepsEachGeneratorLikeRngNext) {
  Rng pick(0x5CA7);
  for (const std::size_t lanes : {1u, 4u, 5u, 8u, 13u}) {
    TrialScanInputs in(37, lanes);
    in.temperature = 2.0;
    for (auto& offset : in.offsets) offset = pick.uniform(-1.0, 1.0);
    std::vector<std::size_t> draws(lanes, 0);
    for (std::size_t i = 0; i < in.n; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        // Per-lane share of drawing variables varies from ~0 to ~1.
        const bool drawn = pick.uniform() < static_cast<double>(l + 1) /
                                                static_cast<double>(lanes + 1);
        // Offsets are within [-1, 1], so rounding keeps each sign.
        in.set_delta(i, l, drawn ? pick.uniform(1e-3, 8.0)
                                 : -pick.uniform(0.0, 8.0));
        draws[l] += drawn ? 1 : 0;
      }
    }
    std::vector<Rng> rngs;
    for (std::size_t l = 0; l < lanes; ++l) {
      rngs.push_back(rng_with_state(
          {pick.next(), pick.next(), pick.next(), pick.next()}));
    }
    SCOPED_TRACE(lanes);
    const TrialScanOutputs out = expect_trial_scan_arms_agree(in, rngs);
    for (std::size_t l = 0; l < lanes; ++l) {
      Rng reference = rngs[l];
      for (std::size_t d = 0; d < draws[l]; ++d) reference.next();
      EXPECT_EQ(out.rng_states[l], reference.state()) << "lane " << l;
    }
  }
}

// The filter's edge cases, one lane each, every lane drawing u == 0 first
// (xoshiro256** from state {1, 0, 0, 0} returns 0): signed zeros accept
// without a draw, NaN draws and rejects, exponents either side of -37.5
// accept only because u == 0, and exp(-745) > 0 == exp(-746).
TEST(SimdEquivalence, TrialScanEdgeCasesMatchScalarArm) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double deltas[] = {0.0, -0.0, nan, 37.4, 37.6, 745.0, 746.0, 1.0};
  const bool accepted[] = {true, true, false, true, true, true, false, true};
  const bool draws[] = {false, false, true, true, true, true, true, true};
  for (const double temperature : {1.0, 0.5}) {
    TrialScanInputs in(1, 8);
    in.temperature = temperature;
    for (std::size_t l = 0; l < 8; ++l) {
      in.set_delta(0, l, deltas[l] * temperature);
    }
    const std::vector<Rng> rngs(8, rng_with_state({1, 0, 0, 0}));
    const TrialScanOutputs out = expect_trial_scan_arms_agree(in, rngs);
    for (std::size_t l = 0; l < 8; ++l) {
      EXPECT_EQ(out.lists[l].size(), accepted[l] ? 1u : 0u) << "lane " << l;
      Rng reference = rngs[l];
      if (draws[l]) reference.next();
      EXPECT_EQ(out.rng_states[l], reference.state()) << "lane " << l;
    }
  }
  // The same exponents with ordinary (nonzero) draws: all but the signed
  // zeros reject, and -37.4 is decided by the polynomial, not the cut-off.
  TrialScanInputs in(1, 8);
  for (std::size_t l = 0; l < 8; ++l) in.set_delta(0, l, deltas[l]);
  std::vector<Rng> rngs;
  for (std::size_t l = 0; l < 8; ++l) rngs.emplace_back(0xE0 + l);
  const TrialScanOutputs out = expect_trial_scan_arms_agree(in, rngs);
  for (std::size_t l = 0; l < 7; ++l) {
    EXPECT_EQ(out.lists[l].size(), l < 2 ? 1u : 0u) << "lane " << l;
  }
}

// Pairs whose u sits within rounding of exp(-delta / T) land in the
// filter's band and take the exact expression: delta = -T log(u) for the
// draw u the lane is about to make, nudged by a few ulps either way.
TEST(SimdEquivalence, TrialScanBandHitsTakeTheExactExpression) {
  Rng pick(0xBA4D);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 64; ++round) {
    TrialScanInputs in(1, 8);
    in.temperature = pick.uniform(0.01, 10.0);
    std::vector<Rng> rngs;
    std::vector<double> u(8);
    for (std::size_t l = 0; l < 8; ++l) {
      rngs.emplace_back(pick.next());
      Rng peek = rngs[l];
      u[l] = peek.uniform();
      double delta = -in.temperature * std::log(u[l]);
      for (int k = static_cast<int>(l % 4) - 2; k != 0; k += k < 0 ? 1 : -1) {
        delta = std::nextafter(delta, k < 0 ? 0.0 : 1e300);
      }
      in.set_delta(0, l, delta);
    }
    const TrialScanOutputs out = expect_trial_scan_arms_agree(in, rngs);
    for (std::size_t l = 0; l < 8; ++l) {
      const double delta = in.fields[l] - in.offsets[l];
      const bool expected =
          delta <= 0.0 || u[l] < std::exp(-delta / in.temperature);
      EXPECT_EQ(out.lists[l].size(), expected ? 1u : 0u);
      (expected ? accepted : rejected) += 1;
    }
  }
  // Both outcomes occur, so the band is not decided one way by accident.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Random deltas across the filter's whole range, signed by random state
// bits, with random offsets: the arms agree scan after scan.
TEST(SimdEquivalence, TrialScanRandomInputsMatchScalarArm) {
  Rng pick(0xF11);
  for (int round = 0; round < 40; ++round) {
    const std::size_t lanes = 1 + static_cast<std::size_t>(pick.uniform_int(12));
    TrialScanInputs in(1 + static_cast<std::size_t>(pick.uniform_int(60)),
                       lanes);
    in.temperature = std::exp(pick.uniform(-6.0, 4.0));
    for (auto& offset : in.offsets) offset = pick.uniform(0.0, 2.0);
    for (auto& field : in.fields) {
      field = in.temperature * pick.uniform(-5.0, 45.0);
    }
    for (auto& word : in.state) word = pick.next();
    std::vector<Rng> rngs;
    for (std::size_t l = 0; l < lanes; ++l) rngs.emplace_back(pick.next());
    SCOPED_TRACE(round);
    expect_trial_scan_arms_agree(in, rngs);
  }
}

TEST(SimdEquivalence, EmptyAndDiagonalOnlyModels) {
  expect_both_arms_match_scalar_reference(QuboModel(0), 1);
  QuboModel diag(5);
  diag.set_offset(1.25);
  for (std::size_t i = 0; i < 5; ++i) diag.add_term(i, i, 0.5 * (i + 1));
  expect_both_arms_match_scalar_reference(diag, 2);
}

TEST(SimdEquivalence, DispatchOverrideClampsAndRestores) {
  const SimdKind before = active_simd_kind();
  {
    ScopedSimdKind forced(SimdKind::kScalar);
    EXPECT_EQ(active_simd_kind(), SimdKind::kScalar);
    EXPECT_EQ(forced.installed(), SimdKind::kScalar);
    const SparseAdjacencyPtr adj =
        SparseAdjacency::build(random_model(8, 3, 0.5));
    EXPECT_EQ(ReplicaBlockEvaluator(adj, 4).kind(), SimdKind::kScalar);
  }
  EXPECT_EQ(active_simd_kind(), before);
  // An avx2 request never installs an arm the CPU cannot run.
  const SimdKind installed = set_simd_kind(SimdKind::kAvx2);
  EXPECT_EQ(installed, cpu_supports_avx2() ? SimdKind::kAvx2
                                           : SimdKind::kScalar);
  set_simd_kind(before);
}

// --- solver-level batch identity across arms and thread counts -------------

void expect_same_batch(const SolveBatch& a, const SolveBatch& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t r = 0; r < a.results.size(); ++r) {
    expect_bits_eq(a.results[r].qubo_energy, b.results[r].qubo_energy);
    EXPECT_EQ(a.results[r].assignment, b.results[r].assignment)
        << "replica " << r;
  }
}

class SimdSolverEquivalence : public ::testing::Test {
 protected:
  static std::vector<std::pair<const char*, QuboModel>> models() {
    std::vector<std::pair<const char*, QuboModel>> out;
    out.emplace_back("dense", random_model(24, 42, 0.8));
    out.emplace_back("sparse", random_model(48, 43, 0.06));
    out.emplace_back("mvc",
                     mvc::generate_random_mvc(36, 0.1, 17).to_qubo(2.0));
    out.emplace_back("tsp", tsp::build_tsp_problem(tsp::generate_uniform(
                                6, 0xBEE)).to_qubo(25.0));
    return out;
  }

  static void expect_arm_identical_batches(const solvers::QuboSolver& solver) {
    if (!cpu_supports_avx2()) {
      GTEST_SKIP() << "CPU has no AVX2; the scalar arm is the only arm";
    }
    for (const auto& [tag, model] : models()) {
      solvers::SolveOptions options;
      options.num_replicas = 13;  // straddles one 8-lane block boundary
      options.num_sweeps = 30;
      options.seed = 0xF00D;
      SolveBatch scalar_batch, avx2_batch;
      {
        ScopedSimdKind forced(SimdKind::kScalar);
        scalar_batch = solver.solve(model, options);
      }
      {
        ScopedSimdKind forced(SimdKind::kAvx2);
        avx2_batch = solver.solve(model, options);
      }
      SCOPED_TRACE(tag);
      expect_same_batch(scalar_batch, avx2_batch);
    }
  }

  static void expect_thread_invariant_batches(
      const solvers::QuboSolver& solver) {
    const QuboModel model = random_model(32, 77, 0.2);
    solvers::SolveOptions sequential;
    sequential.num_replicas = 19;
    sequential.num_sweeps = 25;
    sequential.seed = 0xCAFE;
    solvers::SolveOptions pooled = sequential;
    pooled.num_threads = 3;
    expect_same_batch(solver.solve(model, sequential),
                      solver.solve(model, pooled));
  }
};

TEST_F(SimdSolverEquivalence, SaBatchesIdenticalAcrossArms) {
  expect_arm_identical_batches(solvers::SimulatedAnnealer());
}

TEST_F(SimdSolverEquivalence, DaBatchesIdenticalAcrossArms) {
  expect_arm_identical_batches(solvers::DigitalAnnealer());
}

TEST_F(SimdSolverEquivalence, PtBatchesIdenticalAcrossArms) {
  expect_arm_identical_batches(solvers::ParallelTempering());
}

TEST_F(SimdSolverEquivalence, SaBatchesIdenticalAcrossThreadCounts) {
  expect_thread_invariant_batches(solvers::SimulatedAnnealer());
}

TEST_F(SimdSolverEquivalence, DaBatchesIdenticalAcrossThreadCounts) {
  expect_thread_invariant_batches(solvers::DigitalAnnealer());
}

// Replica r's trajectory depends only on (seed, r): asking for a bigger
// batch with the same seed extends the batch without rewriting its prefix.
TEST_F(SimdSolverEquivalence, SaAndDaBatchPrefixStableUnderBatchGrowth) {
  const QuboModel model = random_model(28, 55, 0.3);
  for (const auto solver :
       {solvers::SolverPtr(std::make_shared<solvers::SimulatedAnnealer>()),
        solvers::SolverPtr(std::make_shared<solvers::DigitalAnnealer>())}) {
    solvers::SolveOptions small;
    small.num_replicas = 12;
    small.num_sweeps = 20;
    small.seed = 99;
    solvers::SolveOptions large = small;
    large.num_replicas = 20;
    const SolveBatch small_batch = solver->solve(model, small);
    const SolveBatch large_batch = solver->solve(model, large);
    for (std::size_t r = 0; r < small.num_replicas; ++r) {
      expect_bits_eq(small_batch.results[r].qubo_energy,
                     large_batch.results[r].qubo_energy);
      EXPECT_EQ(small_batch.results[r].assignment,
                large_batch.results[r].assignment);
    }
  }
}

// The blocked digital annealer is a pure vectorisation: each lane replays
// the pre-SIMD per-replica kernel's RNG stream draw for draw.  This pins
// that contract against an in-test transcription of the scalar kernel, on
// both arms, for a small random model and the end-to-end benchmark's two
// kernel shapes (solve_fresh: 10-city TSP, 8 x 40; tune_remote probe:
// 12 cities, 8 x 20).
SolveBatch replay_da_scalar_kernel(const QuboModel& model,
                                   const solvers::SolveOptions& options) {
  const SparseAdjacencyPtr adj = SparseAdjacency::build(model);
  const std::size_t n = model.num_vars();
  const solvers::DaParams params;
  Rng probe_rng(derive_seed(options.seed, 0xda0ULL));
  const double typical_delta =
      solvers::probe_delta_scale(adj, probe_rng).typical;
  const double t_start =
      typical_delta / -std::log(params.initial_acceptance);
  const double t_end =
      std::max(typical_delta * 1e-3 / -std::log(params.final_acceptance),
               t_start * 1e-6);
  const double offset_step = params.offset_increase_rate * typical_delta;
  const double cooling =
      std::pow(t_end / t_start,
               1.0 / static_cast<double>(options.num_sweeps - 1));
  SolveBatch batch;
  for (std::size_t replica = 0; replica < options.num_replicas; ++replica) {
    Rng rng(derive_seed(options.seed, replica));
    IncrementalEvaluator eval(adj);
    Bits x(n);
    for (auto& bit : x) bit = rng.bernoulli(0.5) ? 1 : 0;
    eval.set_state(x);
    double temperature = t_start;
    double offset = 0.0;
    double best_energy = eval.energy();
    Bits best_state = eval.state();
    std::vector<std::size_t> accepted;
    for (std::size_t sweep = 0; sweep < options.num_sweeps; ++sweep) {
      for (std::size_t step = 0; step < n; ++step) {
        accepted.clear();
        for (std::size_t i = 0; i < n; ++i) {
          const double delta = eval.flip_delta(i) - offset;
          if (delta <= 0.0 ||
              rng.uniform() < std::exp(-delta / temperature)) {
            accepted.push_back(i);
          }
        }
        if (accepted.empty()) {
          offset += offset_step;
          continue;
        }
        const std::size_t pick = accepted[static_cast<std::size_t>(
            rng.uniform_int(accepted.size()))];
        eval.apply_flip(pick);
        offset = 0.0;
        if (eval.energy() < best_energy) {
          best_energy = eval.energy();
          best_state = eval.state();
        }
      }
      temperature *= cooling;
    }
    batch.results.push_back({best_state, best_energy});
  }
  return batch;
}

TEST_F(SimdSolverEquivalence, DaLanesReplayScalarKernelExactly) {
  struct Case {
    const char* name;
    QuboModel model;
    std::size_t replicas;
    std::size_t sweeps;
  };
  const auto tsp_qubo = [](std::size_t cities, std::uint64_t seed) {
    return surrogate::PreparedTspInstance(tsp::generate_uniform(cities, seed))
        .problem()
        .to_qubo(25.0);
  };
  const Case cases[] = {
      {"random", random_model(20, 31, 0.35), 5, 15},
      {"solve_fresh", tsp_qubo(10, 0xF5E5), 8, 40},
      {"tune_probe", tsp_qubo(12, 0x7B0E), 8, 20},
  };
  std::vector<SimdKind> arms{SimdKind::kScalar};
  if (cpu_supports_avx2()) arms.push_back(SimdKind::kAvx2);
  for (const Case& c : cases) {
    solvers::SolveOptions options;
    options.num_replicas = c.replicas;
    options.num_sweeps = c.sweeps;
    options.seed = 0xD1517A;
    const SolveBatch reference = replay_da_scalar_kernel(c.model, options);
    for (const SimdKind arm : arms) {
      ScopedSimdKind forced(arm);
      SCOPED_TRACE(std::string(c.name) + " " + to_string(arm));
      expect_same_batch(solvers::DigitalAnnealer().solve(c.model, options),
                        reference);
    }
  }
}

// DA output pinned to committed bytes: the checksum64 of encode_batch() for
// solves in the end-to-end benchmark's two kernel shapes — the solve_fresh
// job (10-city TSP at A = 25, 8 replicas x 40 sweeps) and the tune_remote
// probe (12 cities, 8 x 20, at several A) — written by the per-lane scalar
// Metropolis scan that preceded the lockstep trial-scan kernel.  Every arm
// this CPU has must reproduce them, so a kernel change that alters any
// accept decision or RNG draw fails here even when both arms agree.
struct DaGoldenShape {
  const char* name;
  std::size_t cities;
  double relaxation;
  std::size_t sweeps;
  std::uint64_t instance_seed;
};

constexpr DaGoldenShape kDaGoldenShapes[] = {
    {"solve_fresh_0", 10, 25.0, 40, 0x5EED0},
    {"solve_fresh_1", 10, 25.0, 40, 0x5EED1},
    {"solve_fresh_2", 10, 25.0, 40, 0x5EED2},
    {"tune_probe_0", 12, 10.0, 20, 0x7A0},
    {"tune_probe_1", 12, 25.0, 20, 0x7A1},
    {"tune_probe_2", 12, 60.0, 20, 0x7A2},
};

std::string golden_digest(const solvers::QuboSolver& solver,
                          const DaGoldenShape& shape) {
  const surrogate::PreparedTspInstance prepared(
      tsp::generate_uniform(shape.cities, shape.instance_seed));
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = shape.sweeps;
  options.seed = derive_seed(shape.instance_seed, 1);
  const SolveBatch batch =
      solver.solve(prepared.problem().to_qubo(shape.relaxation), options);
  io::ByteWriter out;
  io::encode_batch(out, batch);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(io::checksum64(out.bytes())));
  return hex;
}

TEST_F(SimdSolverEquivalence, DaMatchesGoldenDigestsOnEveryArm) {
  const auto golden = testing::golden::read_hex_table(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_da_digests.txt");
  std::vector<SimdKind> arms{SimdKind::kScalar};
  if (cpu_supports_avx2()) arms.push_back(SimdKind::kAvx2);
  for (const SimdKind arm : arms) {
    ScopedSimdKind forced(arm);
    for (const auto& shape : kDaGoldenShapes) {
      SCOPED_TRACE(std::string(to_string(arm)) + " " + shape.name);
      ASSERT_TRUE(golden.contains(shape.name));
      EXPECT_EQ(golden_digest(solvers::DigitalAnnealer(), shape),
                golden.at(shape.name));
    }
  }
}

// Every other solver family pinned the same way, on the same instances, by
// golden_solver_digests.txt (written while QuboModel was a dense matrix):
// it guards the model's canonical walk, the analog-noise draw order and
// qbsolv's clamped sub-QUBO sums, which none of the arm comparisons see.
TEST_F(SimdSolverEquivalence, EverySolverMatchesGoldenDigestsOnEveryArm) {
  const auto golden = testing::golden::read_hex_table(
      std::string(QROSS_TEST_DATA_DIR) + "/golden_solver_digests.txt");
  const std::pair<const char*, solvers::SolverPtr> families[] = {
      {"sa", std::make_shared<solvers::SimulatedAnnealer>()},
      {"pt", std::make_shared<solvers::ParallelTempering>()},
      {"tabu", std::make_shared<solvers::TabuSearch>()},
      {"qbsolv", std::make_shared<solvers::Qbsolv>()},
      {"analog_noise_da",
       std::make_shared<solvers::AnalogNoiseSolver>(
           std::make_shared<solvers::DigitalAnnealer>())},
  };
  std::vector<SimdKind> arms{SimdKind::kScalar};
  if (cpu_supports_avx2()) arms.push_back(SimdKind::kAvx2);
  for (const SimdKind arm : arms) {
    ScopedSimdKind forced(arm);
    for (const auto& [family, solver] : families) {
      for (const auto& shape : kDaGoldenShapes) {
        const std::string name = std::string(family) + "." + shape.name;
        SCOPED_TRACE(std::string(to_string(arm)) + " " + name);
        ASSERT_TRUE(golden.contains(name));
        EXPECT_EQ(golden_digest(*solver, shape), golden.at(name));
      }
    }
  }
}

}  // namespace
}  // namespace qross::qubo
