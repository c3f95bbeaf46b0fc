#pragma once

// Vectorised multi-replica flip evaluation over one shared SparseAdjacency.
//
// IncrementalEvaluator tracks ONE replica: x (Bits), fields L_i, energy.
// ReplicaBlockEvaluator tracks a BLOCK of independent replicas ("lanes") in
// structure-of-arrays form so that one CSR row update touches 4 lanes per
// AVX2 instruction instead of one:
//
//         lane:     0      1      2      3   |   4      5      6      7
//   fields_[i]  [ L_i^0  L_i^1  L_i^2  L_i^3 | L_i^4  L_i^5  L_i^6  L_i^7 ]
//                `------ 32-byte vector -----'`------ 32-byte vector -----'
//   state_[i]   [ bit-packed x_i per lane: one std::uint64_t per 64 lanes ]
//   energies_   [  E^0    E^1    E^2    E^3  |  E^4    E^5    E^6    E^7  ]
//
// Rows are contiguous `[var][lane]` with the lane count rounded up to 4
// (lane_stride()), so every row group is a whole __m256d and the padding
// lanes ride along as zeros.  States are bit-packed per variable: the
// accept mask a solver passes to apply_flips() uses the same word layout.
//
// Numerical contract — the reason this type exists instead of "just use
// intrinsics in the solvers": every lane reproduces a scalar
// IncrementalEvaluator over the same adjacency BIT FOR BIT, on both
// dispatch arms.  set_state / apply accumulate in exactly
// IncrementalEvaluator's order; the AVX2 kernels use no FMA (the build
// never enables fma), negate via sign-bit XOR (exact for finite doubles,
// identical to multiplying by ±1.0), and mask untouched lanes with blendv
// rather than adding zero (0.0 + -0.0 would flip a sign bit).  The
// equivalence suite in tests/simd_equivalence_test.cpp enforces this.
//
// trial_scan (the digital annealer's Metropolis test over every variable
// and lane) keeps the same promise in a different way: its AVX2 arm makes
// every accept decision and every RNG draw of the scalar arm, so the
// accepted lists and generator states agree exactly.  Per lane it steps
// the generator only where !(delta <= 0) — a NaN delta draws, as in
// scalar code — and decides u < exp(-delta / T) with a short polynomial
// a ~ exp whose relative error is far below δ = 1e-7: u < a(1 - δ) accepts,
// u >= a(1 + δ) rejects, and only a pair in the band between (or a NaN)
// calls the scalar arm's exact std::exp expression.  Below -delta / T =
// -37.5, exp is under 2^-53, the smallest nonzero draw, so every draw but
// u == 0 rejects and u == 0 takes the exact expression (exp underflows to
// zero below about -745).
//
// Like IncrementalEvaluator, a block is not thread-safe: one block per
// worker.  The kernel arm is chosen at construction from
// active_simd_kind() (QROSS_SIMD / set_simd_kind) and can be pinned
// explicitly for A/B tests.

#include <cstdint>
#include <span>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "qubo/model.hpp"
#include "qubo/simd.hpp"
#include "qubo/sparse.hpp"

namespace qross::qubo {

namespace detail {

/// The SoA arrays a kernel reads/writes, without the owning class.
struct BlockArrays {
  double* fields;        // num_vars * stride, 64-byte aligned
  std::uint64_t* state;  // num_vars * words
  double* energies;      // stride, 64-byte aligned
  std::size_t stride;    // lanes rounded up to 4
  std::size_t words;     // ceil(stride / 64) state/mask words per variable
};

/// Kernel-owned scratch (allocated once per evaluator, stride doubles each;
/// the scalar arm reuses lane_sign for ±1 signs and lane_mask's storage for
/// accepted-lane indices).
struct BlockScratch {
  double* lane_mask;  // 64-byte aligned
  double* lane_sign;  // 64-byte aligned
};

/// Inputs and outputs of one parallel-trial scan
/// (ReplicaBlockEvaluator::trial_scan).
struct TrialScan {
  std::size_t num_vars;
  std::size_t lanes;
  const double* offsets;    // lanes doubles
  double temperature;
  Rng* rngs;                // lanes generators, advanced in place
  std::uint32_t* accepted;  // lane l's list at accepted + l * num_vars
  std::uint32_t* counts;    // lanes list lengths
};

/// One dispatch arm.  compute_flip_deltas reads row i's fields/state and
/// writes stride deltas; apply_flips commits the accepted lanes of a
/// proposed flip of variable i (energy, packed bit, neighbour fields);
/// trial_scan runs the Metropolis test on every (variable, lane) pair.
struct BlockKernel {
  void (*compute_flip_deltas)(const double* fields_row,
                              const std::uint64_t* state_row,
                              std::size_t stride, double* out);
  void (*apply_flips)(const SparseAdjacency& adj, std::size_t i,
                      const BlockArrays& arrays, const std::uint64_t* accept,
                      const double* deltas, const BlockScratch& scratch);
  void (*trial_scan)(const double* fields, const std::uint64_t* state,
                     std::size_t stride, const TrialScan& scan);
};

const BlockKernel& scalar_block_kernel();
/// nullptr when the binary has no AVX2 arm (non-x86 builds).
const BlockKernel* avx2_block_kernel();

}  // namespace detail

class ReplicaBlockEvaluator {
 public:
  /// Lanes per vector register group; lane_stride() is a multiple of this.
  static constexpr std::size_t kGroupLanes = 4;  // __m256d

  /// A block of `lanes` replicas over the shared adjacency, dispatching to
  /// `kind` (defaults to the process-wide active_simd_kind(); an
  /// unsupported request degrades to scalar).
  explicit ReplicaBlockEvaluator(SparseAdjacencyPtr adjacency,
                                 std::size_t lanes,
                                 SimdKind kind = active_simd_kind());

  std::size_t num_vars() const { return n_; }
  std::size_t lanes() const { return lanes_; }
  /// Lane count rounded up to kGroupLanes: the length of a fields row and
  /// of every caller-provided delta buffer.
  std::size_t lane_stride() const { return stride_; }
  /// std::uint64_t words per variable in the packed state — and per accept
  /// mask passed to apply_flips().
  std::size_t mask_words() const { return words_; }
  /// The arm this block dispatches to (after CPU clamping).
  SimdKind kind() const { return kind_; }
  const SparseAdjacencyPtr& adjacency() const { return adjacency_; }

  /// Resets lane `lane` to assignment x (O(n + nnz), scalar on both arms —
  /// same accumulation order as IncrementalEvaluator::set_state).
  void set_state(std::size_t lane, std::span<const std::uint8_t> x);

  double energy(std::size_t lane) const { return energies_[lane]; }
  bool bit(std::size_t lane, std::size_t i) const {
    return (state_[i * words_ + lane / 64] >> (lane % 64)) & 1u;
  }
  /// Lane `lane`'s current assignment, unpacked (for batch results).
  void extract_state(std::size_t lane, Bits& out) const;

  /// Energy delta of flipping bit i in one lane (O(1), scalar).
  double flip_delta(std::size_t lane, std::size_t i) const {
    const double field = fields_[i * stride_ + lane];
    return bit(lane, i) ? -field : field;
  }

  /// Deltas of flipping bit i in EVERY lane at once.  `out` must hold
  /// lane_stride() doubles; padding lanes receive ±0.0.  This is the
  /// vectorised read solvers call per proposal.
  void compute_flip_deltas(std::size_t i, double* out) const {
    kernel_->compute_flip_deltas(fields_.data() + i * stride_,
                                 state_.data() + i * words_, stride_, out);
  }

  /// Commits the flip of bit i in the lanes whose bits are set in `accept`
  /// (mask_words() words; bits past lanes() must be clear).  `deltas` is
  /// the compute_flip_deltas(i, ...) output for the CURRENT state.  Updates
  /// accepted lanes' energies, packed bits, and the deg(i) neighbour field
  /// rows; unaccepted lanes are untouched.  O(deg(i) * lanes / width).
  void apply_flips(std::size_t i, const std::uint64_t* accept,
                   const double* deltas) {
    detail::BlockArrays arrays{fields_.data(), state_.data(), energies_.data(),
                               stride_, words_};
    detail::BlockScratch scratch{lane_mask_.data(), lane_sign_.data()};
    kernel_->apply_flips(*adjacency_, i, arrays, accept, deltas, scratch);
  }

  /// Single-lane flip (O(deg(i)) scalar) for per-lane control flow like the
  /// digital annealer's pick-one-of-accepted step.
  void apply_flip_lane(std::size_t lane, std::size_t i);

  /// The digital annealer's parallel trial: for every variable i in
  /// ascending order and every lane l, the Metropolis test
  ///
  ///   delta = flip_delta(l, i) - offsets[l];
  ///   delta <= 0.0 || rngs[l].uniform() < std::exp(-delta / temperature)
  ///
  /// appending each accepted i to lane l's list: counts[l] entries at
  /// accepted + l * num_vars() (which must hold lanes() * num_vars()).
  /// `offsets` and `rngs` hold lanes() entries; each generator advances by
  /// exactly the draws that expression makes.  Both arms return the same
  /// lists and leave the same generator states — see the contract above.
  void trial_scan(const double* offsets, double temperature, Rng* rngs,
                  std::uint32_t* accepted, std::uint32_t* counts) const {
    kernel_->trial_scan(
        fields_.data(), state_.data(), stride_,
        detail::TrialScan{n_, lanes_, offsets, temperature, rngs, accepted,
                          counts});
  }

 private:
  SparseAdjacencyPtr adjacency_;
  std::size_t n_;
  std::size_t lanes_;
  std::size_t stride_;
  std::size_t words_;
  SimdKind kind_;
  const detail::BlockKernel* kernel_;
  AlignedVector<double> fields_;        // n_ * stride_
  AlignedVector<std::uint64_t> state_;  // n_ * words_
  AlignedVector<double> energies_;      // stride_
  AlignedVector<double> lane_mask_;     // stride_ (kernel scratch)
  AlignedVector<double> lane_sign_;     // stride_ (kernel scratch)
};

}  // namespace qross::qubo
