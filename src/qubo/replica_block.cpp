#include "qubo/replica_block.hpp"

#include <bit>
#include <cmath>

#include "common/assert.hpp"

namespace qross::qubo {

namespace detail {
namespace {

// ---------------------------------------------------------------------------
// Scalar arm.  This is both the portable fallback and the bit-for-bit
// reference the AVX2 arm is tested against: every arithmetic step below has
// an exact vector counterpart (negate == sign-bit XOR, masked skip ==
// blendv), so keep the two files in lockstep when changing either.

void scalar_compute_flip_deltas(const double* fields_row,
                                const std::uint64_t* state_row,
                                std::size_t stride, double* out) {
  for (std::size_t l = 0; l < stride; ++l) {
    const bool set = (state_row[l / 64] >> (l % 64)) & 1u;
    out[l] = set ? -fields_row[l] : fields_row[l];
  }
}

void scalar_apply_flips(const SparseAdjacency& adj, std::size_t i,
                        const BlockArrays& arrays, const std::uint64_t* accept,
                        const double* deltas, const BlockScratch& scratch) {
  std::uint64_t* state_row = arrays.state + i * arrays.words;
  // Per accepted lane: energy commit, bit flip, and the ±1 field-update
  // sign (old x == 0 means the flip turns the bit ON, so neighbours gain
  // +w — the exact order and sign rule of IncrementalEvaluator::apply_flip).
  for (std::size_t w = 0; w < arrays.words; ++w) {
    std::uint64_t bits = accept[w];
    while (bits != 0) {
      const std::size_t l = w * 64 + std::countr_zero(bits);
      bits &= bits - 1;
      arrays.energies[l] += deltas[l];
      const std::uint64_t bit = std::uint64_t{1} << (l % 64);
      scratch.lane_sign[l] = (state_row[w] & bit) != 0 ? -1.0 : 1.0;
      state_row[w] ^= bit;
    }
  }
  const auto neighbors = adj.neighbors(i);
  const auto weights = adj.weights(i);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    double* row = arrays.fields + neighbors[k] * arrays.stride;
    const double weight = weights[k];
    for (std::size_t w = 0; w < arrays.words; ++w) {
      std::uint64_t bits = accept[w];
      while (bits != 0) {
        const std::size_t l = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        row[l] += scratch.lane_sign[l] * weight;
      }
    }
  }
}

// Per lane, the draw sequence of the digital annealer's original
// per-replica loop: lanes own independent generators, so visiting them
// variable by variable changes no lane's stream.
void scalar_trial_scan(const double* fields, const std::uint64_t* state,
                       std::size_t stride, const TrialScan& scan) {
  const std::size_t words = (stride + 63) / 64;
  for (std::size_t l = 0; l < scan.lanes; ++l) scan.counts[l] = 0;
  for (std::size_t i = 0; i < scan.num_vars; ++i) {
    const double* fields_row = fields + i * stride;
    const std::uint64_t* state_row = state + i * words;
    for (std::size_t l = 0; l < scan.lanes; ++l) {
      const bool set = (state_row[l / 64] >> (l % 64)) & 1u;
      const double delta =
          (set ? -fields_row[l] : fields_row[l]) - scan.offsets[l];
      if (delta <= 0.0 || scan.rngs[l].uniform() <
                              std::exp(-delta / scan.temperature)) {
        scan.accepted[l * scan.num_vars + scan.counts[l]++] =
            static_cast<std::uint32_t>(i);
      }
    }
  }
}

constexpr BlockKernel kScalarKernel{scalar_compute_flip_deltas,
                                    scalar_apply_flips, scalar_trial_scan};

}  // namespace

const BlockKernel& scalar_block_kernel() { return kScalarKernel; }

}  // namespace detail

ReplicaBlockEvaluator::ReplicaBlockEvaluator(SparseAdjacencyPtr adjacency,
                                             std::size_t lanes, SimdKind kind)
    : adjacency_(std::move(adjacency)),
      n_(adjacency_ ? adjacency_->num_vars() : 0),
      lanes_(lanes),
      stride_((lanes + kGroupLanes - 1) / kGroupLanes * kGroupLanes),
      words_((stride_ + 63) / 64),
      kind_(kind == SimdKind::kAvx2 && detail::avx2_block_kernel() != nullptr &&
                    cpu_supports_avx2()
                ? SimdKind::kAvx2
                : SimdKind::kScalar),
      kernel_(kind_ == SimdKind::kAvx2 ? detail::avx2_block_kernel()
                                       : &detail::scalar_block_kernel()),
      fields_(n_ * stride_, 0.0),
      state_(n_ * words_, 0),
      energies_(stride_, 0.0),
      lane_mask_(stride_, 0.0),
      lane_sign_(stride_, 0.0) {
  QROSS_REQUIRE(adjacency_ != nullptr, "adjacency required");
  QROSS_REQUIRE(lanes_ >= 1, "at least one lane");
  // All lanes start at the all-zeros assignment, like a fresh
  // IncrementalEvaluator: fields reduce to the diagonals, energy to offset.
  for (std::size_t i = 0; i < n_; ++i) {
    const double diag = adjacency_->diagonal(i);
    double* row = fields_.data() + i * stride_;
    for (std::size_t l = 0; l < lanes_; ++l) row[l] = diag;
  }
  for (std::size_t l = 0; l < lanes_; ++l) energies_[l] = adjacency_->offset();
}

void ReplicaBlockEvaluator::set_state(std::size_t lane,
                                      std::span<const std::uint8_t> x) {
  QROSS_REQUIRE(lane < lanes_, "lane out of range");
  QROSS_REQUIRE(x.size() == n_, "state size mismatch");
  const SparseAdjacency& adj = *adjacency_;
  const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
  const std::size_t word = lane / 64;
  // Mirrors IncrementalEvaluator::set_state term for term so the lane's
  // field and energy values are bitwise those of a scalar evaluator.
  double energy = adj.offset();
  for (std::size_t i = 0; i < n_; ++i) {
    const auto neighbors = adj.neighbors(i);
    const auto weights = adj.weights(i);
    double field = adj.diagonal(i);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      if (x[neighbors[k]] != 0) field += weights[k];
    }
    fields_[i * stride_ + lane] = field;
    std::uint64_t& state_word = state_[i * words_ + word];
    state_word = x[i] != 0 ? (state_word | bit) : (state_word & ~bit);
    if (x[i] != 0) {
      energy += adj.diagonal(i);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        const std::uint32_t j = neighbors[k];
        if (j > i && x[j] != 0) energy += weights[k];
      }
    }
  }
  energies_[lane] = energy;
}

void ReplicaBlockEvaluator::extract_state(std::size_t lane, Bits& out) const {
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = bit(lane, i) ? 1 : 0;
}

void ReplicaBlockEvaluator::apply_flip_lane(std::size_t lane, std::size_t i) {
  QROSS_ASSERT(lane < lanes_ && i < n_);
  energies_[lane] += flip_delta(lane, i);
  std::uint64_t& word = state_[i * words_ + lane / 64];
  const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
  const double sign = (word & bit) != 0 ? -1.0 : 1.0;
  word ^= bit;
  const auto neighbors = adjacency_->neighbors(i);
  const auto weights = adjacency_->weights(i);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    fields_[neighbors[k] * stride_ + lane] += sign * weights[k];
  }
}

}  // namespace qross::qubo
