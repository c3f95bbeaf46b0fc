// AVX2 arm of the replica-block kernels.  The whole build stays at the
// portable -march=x86-64 baseline; only the functions below are compiled
// for AVX2, via per-function target attributes (the target-pragma idiom of
// competition solvers), and are reached strictly through the dispatch table
// when the CPU reports the feature.
//
// Bit-identity with the scalar arm (see replica_block.cpp) is a hard
// contract, enforced by tests/simd_equivalence_test.cpp:
//
//   * negation is a sign-bit XOR — exact, and identical to the scalar
//     arm's `bit ? -f : f` / multiply-by-±1.0 for every finite double;
//   * no FMA: the build never passes -mfma, and target("avx2") alone
//     cannot contract mul+add, so each add matches the scalar add;
//   * unaccepted lanes are preserved with blendv, never with "+ 0.0"
//     (0.0 + -0.0 would rewrite the stored sign bit).

#include "qubo/replica_block.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <bit>
#include <cmath>

namespace qross::qubo::detail {
namespace {

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/// Expands the 4 accept/state bits of lane group g (lanes 4g..4g+3, all
/// within one 64-bit word because the stride is a multiple of 4) into a
/// per-lane all-ones/all-zeros __m256d mask.
__attribute__((target("avx2"))) inline __m256d group_mask(
    const std::uint64_t* words, std::size_t g) {
  const std::uint64_t word = words[(g * 4) / 64];
  const unsigned shift = (g * 4) % 64;
  const __m256i bits = _mm256_setr_epi64x(
      static_cast<long long>(std::uint64_t{1} << shift),
      static_cast<long long>(std::uint64_t{2} << shift),
      static_cast<long long>(std::uint64_t{4} << shift),
      static_cast<long long>(std::uint64_t{8} << shift));
  const __m256i wordv = _mm256_set1_epi64x(static_cast<long long>(word));
  return _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(wordv, bits), bits));
}

__attribute__((target("avx2"))) void avx2_compute_flip_deltas(
    const double* fields_row, const std::uint64_t* state_row,
    std::size_t stride, double* out) {
  for (std::size_t g = 0; g < stride / 4; ++g) {
    const __m256d fields = _mm256_load_pd(fields_row + g * 4);
    // Lanes with x_i == 1 negate their field: flip the sign bit.
    const __m256d sign = _mm256_and_pd(
        group_mask(state_row, g),
        _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(kSignBit))));
    _mm256_storeu_pd(out + g * 4, _mm256_xor_pd(fields, sign));
  }
}

/// Register-resident specialisation for the hot small strides (the solver
/// kernels block 8 replicas → G == 2): accept masks and update signs live
/// in __m256d registers across the whole neighbour loop instead of being
/// reloaded from scratch per row.  Arithmetic is identical to the generic
/// path below — specialisation changes scheduling, never values.
template <std::size_t G>
__attribute__((target("avx2"))) void avx2_apply_flips_fixed(
    const SparseAdjacency& adj, std::size_t i, const BlockArrays& arrays,
    const std::uint64_t* accept, const double* deltas) {
  const __m256d signbit = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(kSignBit)));
  std::uint64_t* state_row = arrays.state + i * arrays.words;
  __m256d mask[G];
  __m256d sign[G];
  for (std::size_t g = 0; g < G; ++g) {
    mask[g] = group_mask(accept, g);
    const __m256d energy = _mm256_load_pd(arrays.energies + g * 4);
    const __m256d bumped =
        _mm256_add_pd(energy, _mm256_loadu_pd(deltas + g * 4));
    _mm256_store_pd(arrays.energies + g * 4,
                    _mm256_blendv_pd(energy, bumped, mask[g]));
  }
  for (std::size_t w = 0; w < arrays.words; ++w) state_row[w] ^= accept[w];
  for (std::size_t g = 0; g < G; ++g) {
    sign[g] = _mm256_andnot_pd(group_mask(state_row, g), signbit);
  }
  const auto neighbors = adj.neighbors(i);
  const auto weights = adj.weights(i);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    double* row = arrays.fields + neighbors[k] * arrays.stride;
    const __m256d weight = _mm256_set1_pd(weights[k]);
    for (std::size_t g = 0; g < G; ++g) {
      const __m256d addend = _mm256_xor_pd(weight, sign[g]);
      const __m256d fields = _mm256_load_pd(row + g * 4);
      _mm256_store_pd(row + g * 4,
                      _mm256_blendv_pd(fields, _mm256_add_pd(fields, addend),
                                       mask[g]));
    }
  }
}

__attribute__((target("avx2"))) void avx2_apply_flips(
    const SparseAdjacency& adj, std::size_t i, const BlockArrays& arrays,
    const std::uint64_t* accept, const double* deltas,
    const BlockScratch& scratch) {
  const std::size_t groups = arrays.stride / 4;
  if (groups == 2) {
    return avx2_apply_flips_fixed<2>(adj, i, arrays, accept, deltas);
  }
  if (groups == 1) {
    return avx2_apply_flips_fixed<1>(adj, i, arrays, accept, deltas);
  }
  const __m256d signbit = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(kSignBit)));
  std::uint64_t* state_row = arrays.state + i * arrays.words;

  // Commit energies of accepted lanes and cache per-group masks; then flip
  // the packed bits and derive the field-update sign from the NEW bit
  // (bit now 1 → +w to neighbours; bit now 0 → -w), which equals the
  // scalar arm's old-bit rule.
  for (std::size_t g = 0; g < groups; ++g) {
    const __m256d mask = group_mask(accept, g);
    const __m256d energy = _mm256_load_pd(arrays.energies + g * 4);
    const __m256d bumped =
        _mm256_add_pd(energy, _mm256_loadu_pd(deltas + g * 4));
    _mm256_store_pd(arrays.energies + g * 4,
                    _mm256_blendv_pd(energy, bumped, mask));
    _mm256_store_pd(scratch.lane_mask + g * 4, mask);
  }
  for (std::size_t w = 0; w < arrays.words; ++w) state_row[w] ^= accept[w];
  for (std::size_t g = 0; g < groups; ++g) {
    // Sign bit set where the new state bit is 0 (subtract w).
    const __m256d sign = _mm256_andnot_pd(group_mask(state_row, g), signbit);
    _mm256_store_pd(scratch.lane_sign + g * 4, sign);
  }

  const auto neighbors = adj.neighbors(i);
  const auto weights = adj.weights(i);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    double* row = arrays.fields + neighbors[k] * arrays.stride;
    const __m256d weight = _mm256_set1_pd(weights[k]);
    for (std::size_t g = 0; g < groups; ++g) {
      const __m256d addend =
          _mm256_xor_pd(weight, _mm256_load_pd(scratch.lane_sign + g * 4));
      const __m256d fields = _mm256_load_pd(row + g * 4);
      const __m256d updated = _mm256_add_pd(fields, addend);
      _mm256_store_pd(
          row + g * 4,
          _mm256_blendv_pd(fields, updated,
                           _mm256_load_pd(scratch.lane_mask + g * 4)));
    }
  }
}

// --- parallel-trial scan ------------------------------------------------------

/// Four lanes' xoshiro256** states, one state word per register.
struct LaneRngs {
  __m256i s0, s1, s2, s3;
};

__attribute__((target("avx2"))) inline __m256i rotl64(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

__attribute__((target("avx2"))) inline __m256i load_words(
    const std::uint64_t* p) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void store_words(std::uint64_t* p,
                                                        __m256i v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Rng::next() on the lanes set in `step`; the other lanes keep their
/// state.  The two 64-bit multiplies are shift-adds (x*5 = 4x + x,
/// x*9 = 8x + x), which wrap modulo 2^64 exactly as the scalar products do.
__attribute__((target("avx2"))) inline __m256i xoshiro_next(LaneRngs& r,
                                                            __m256i step) {
  const __m256i s1x5 = _mm256_add_epi64(_mm256_slli_epi64(r.s1, 2), r.s1);
  const __m256i rot = rotl64(s1x5, 7);
  const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(rot, 3), rot);
  const __m256i t = _mm256_slli_epi64(r.s1, 17);
  __m256i s2 = _mm256_xor_si256(r.s2, r.s0);
  __m256i s3 = _mm256_xor_si256(r.s3, r.s1);
  const __m256i s1 = _mm256_xor_si256(r.s1, s2);
  const __m256i s0 = _mm256_xor_si256(r.s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rotl64(s3, 45);
  r.s0 = _mm256_blendv_epi8(r.s0, s0, step);
  r.s1 = _mm256_blendv_epi8(r.s1, s1, step);
  r.s2 = _mm256_blendv_epi8(r.s2, s2, step);
  r.s3 = _mm256_blendv_epi8(r.s3, s3, step);
  return result;
}

/// Rng::uniform()'s (bits >> 11) * 2^-53.  AVX2 has no int64 -> double
/// conversion, so the 53-bit value is split into exact 21- and 32-bit
/// halves (each converted by the 2^52 mantissa trick); their recombination
/// and the power-of-two scale are exact, like the scalar conversion.
__attribute__((target("avx2"))) inline __m256d unit_double(__m256i bits) {
  const __m256i v = _mm256_srli_epi64(bits, 11);
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);  // 2^52
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(v, 32), magic)),
      two52);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFFLL)), magic)),
      two52);
  return _mm256_mul_pd(
      _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p32)), lo),
      _mm256_set1_pd(0x1.0p-53));
}

/// exp(x) for x in [-37.5, 0] to a relative error below 1.1e-8: x = k ln2
/// + r with |r| <= ln2/2, the degree-7 Taylor polynomial of e^r (relative
/// remainder <= (ln2/2)^8 / 8! * e^ln2 ~ 1.05e-8; the reduction and Horner
/// roundings add ~1e-14), times 2^k built in the exponent field (k in
/// [-54, 0], so 2^k is normal).  Outside that range the value is
/// meaningless; callers mask those lanes.
__attribute__((target("avx2"))) inline __m256d exp_approx(__m256d x) {
  // Adding 1.5 * 2^52 rounds x / ln2 to the nearest integer k and leaves k
  // in the low mantissa bits.
  const __m256d shifter = _mm256_set1_pd(0x1.8p52);
  const __m256d shifted = _mm256_add_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(1.4426950408889634)), shifter);
  const __m256d k = _mm256_sub_pd(shifted, shifter);
  const __m256d r =
      _mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(0.6931471805599453)));
  __m256d p = _mm256_set1_pd(1.0 / 5040.0);
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(0.5));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(1.0));
  const __m256i pow2k = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_castpd_si256(shifted), _mm256_set1_epi64x(1023)),
      52);
  return _mm256_mul_pd(p, _mm256_castsi256_pd(pow2k));
}

// The filter band around the approximation: a pair whose draw lies within
// a relative 1e-7 of a (far wider than its 1.1e-8 error plus roundings)
// takes the exact expression.  Below kDeepExponent, exp(x) < 2^-53.
constexpr double kBand = 1e-7;
constexpr double kDeepExponent = -37.5;

/// One lane group's scan state: four lanes' generators, offsets and
/// accepted lists.  The scan keeps one or two of these as locals across the
/// whole variable loop, so the compiler holds them in registers.
struct LaneGroup {
  LaneRngs rng;
  __m256d offset;
  __m256i live;  // all-ones in the lanes the block really has
  std::size_t g;  // the group's index in the block
  std::uint32_t* list[4];
  std::uint32_t count[4];
};

/// Lanes 4g..4g+3; a padding lane gets a zero generator it never steps and
/// appends into `pad_list`, which nobody reads.
__attribute__((target("avx2"))) inline LaneGroup load_group(
    const TrialScan& scan, std::size_t g, std::uint32_t* pad_list) {
  alignas(32) std::uint64_t words[4][4] = {};
  alignas(32) double offsets[4] = {};
  alignas(32) std::uint64_t live[4] = {};
  LaneGroup group;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::size_t l = 4 * g + k;
    group.count[k] = 0;
    group.list[k] = pad_list;
    if (l >= scan.lanes) continue;
    const auto& state = scan.rngs[l].state();
    for (std::size_t w = 0; w < 4; ++w) words[w][k] = state[w];
    offsets[k] = scan.offsets[l];
    live[k] = ~std::uint64_t{0};
    group.list[k] = scan.accepted + l * scan.num_vars;
  }
  group.rng = {load_words(words[0]), load_words(words[1]),
               load_words(words[2]), load_words(words[3])};
  group.offset = _mm256_load_pd(offsets);
  group.live = load_words(live);
  group.g = g;
  return group;
}

__attribute__((target("avx2"))) inline void store_group(
    const LaneGroup& group, const TrialScan& scan) {
  const std::size_t g = group.g;
  alignas(32) std::uint64_t words[4][4];
  store_words(words[0], group.rng.s0);
  store_words(words[1], group.rng.s1);
  store_words(words[2], group.rng.s2);
  store_words(words[3], group.rng.s3);
  for (std::size_t k = 0; k < 4 && 4 * g + k < scan.lanes; ++k) {
    scan.rngs[4 * g + k].set_state(
        {words[0][k], words[1][k], words[2][k], words[3][k]});
    scan.counts[4 * g + k] = group.count[k];
  }
}

/// The Metropolis test of variable i in one lane group (see the contract in
/// replica_block.hpp).
__attribute__((target("avx2"), always_inline)) inline void scan_variable(
    LaneGroup& group, const double* fields_row, const std::uint64_t* state_row,
    std::size_t i, double temperature) {
  const __m256d signbit = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(kSignBit)));
  const __m256d zero = _mm256_setzero_pd();
  const __m256d delta = _mm256_sub_pd(
      _mm256_xor_pd(_mm256_load_pd(fields_row),
                    _mm256_and_pd(group_mask(state_row, group.g), signbit)),
      group.offset);
  // !(delta <= 0): NaN draws too, exactly as the scalar test does.
  const __m256i draw = _mm256_and_si256(
      _mm256_castpd_si256(_mm256_cmp_pd(delta, zero, _CMP_NLE_UQ)),
      group.live);
  const __m256d u = unit_double(xoshiro_next(group.rng, draw));
  const __m256d x = _mm256_div_pd(_mm256_xor_pd(delta, signbit),
                                  _mm256_set1_pd(temperature));
  const __m256d a = exp_approx(x);
  const __m256d deep =
      _mm256_cmp_pd(x, _mm256_set1_pd(kDeepExponent), _CMP_LT_OQ);
  const __m256d sure_accept = _mm256_andnot_pd(
      deep, _mm256_cmp_pd(u, _mm256_mul_pd(a, _mm256_set1_pd(1.0 - kBand)),
                          _CMP_LT_OQ));
  const __m256d sure_reject = _mm256_blendv_pd(
      _mm256_cmp_pd(u, _mm256_mul_pd(a, _mm256_set1_pd(1.0 + kBand)),
                    _CMP_GE_OQ),
      _mm256_cmp_pd(u, zero, _CMP_NEQ_OQ), deep);
  const __m256d drawn = _mm256_castsi256_pd(draw);
  unsigned accept = static_cast<unsigned>(_mm256_movemask_pd(_mm256_or_pd(
      _mm256_andnot_pd(drawn, _mm256_castsi256_pd(group.live)),
      _mm256_and_pd(drawn, sure_accept))));
  unsigned band = static_cast<unsigned>(_mm256_movemask_pd(
      _mm256_andnot_pd(_mm256_or_pd(sure_accept, sure_reject), drawn)));
  if (band != 0) {
    alignas(32) double u_lanes[4];
    alignas(32) double delta_lanes[4];
    _mm256_store_pd(u_lanes, u);
    _mm256_store_pd(delta_lanes, delta);
    for (; band != 0; band &= band - 1) {
      const int k = std::countr_zero(band);
      if (u_lanes[k] < std::exp(-delta_lanes[k] / temperature)) {
        accept |= 1u << k;
      }
    }
  }
  // Branch-free append: every lane writes i at its list's end and only
  // accepting lanes advance it (the slot is < num_vars either way).
  for (std::size_t k = 0; k < 4; ++k) {
    group.list[k][group.count[k]] = static_cast<std::uint32_t>(i);
    group.count[k] += (accept >> k) & 1u;
  }
}

/// Lanes are independent in the scan, so the block is covered in chunks of
/// two lane groups (one for an odd last group), each chunk scanning every
/// variable with its generators in registers.
__attribute__((target("avx2"))) void avx2_trial_scan(
    const double* fields, const std::uint64_t* state, std::size_t stride,
    const TrialScan& scan) {
  const std::size_t words = (stride + 63) / 64;
  const std::size_t groups = (scan.lanes + 3) / 4;
  std::uint32_t pad_list[1];
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    LaneGroup first = load_group(scan, g, pad_list);
    LaneGroup second = load_group(scan, g + 1, pad_list);
    for (std::size_t i = 0; i < scan.num_vars; ++i) {
      const double* fields_row = fields + i * stride + 4 * g;
      const std::uint64_t* state_row = state + i * words;
      scan_variable(first, fields_row, state_row, i, scan.temperature);
      scan_variable(second, fields_row + 4, state_row, i, scan.temperature);
    }
    store_group(first, scan);
    store_group(second, scan);
  }
  if (g < groups) {
    LaneGroup last = load_group(scan, g, pad_list);
    for (std::size_t i = 0; i < scan.num_vars; ++i) {
      scan_variable(last, fields + i * stride + 4 * g, state + i * words, i,
                    scan.temperature);
    }
    store_group(last, scan);
  }
}

constexpr BlockKernel kAvx2Kernel{avx2_compute_flip_deltas, avx2_apply_flips,
                                  avx2_trial_scan};

}  // namespace

const BlockKernel* avx2_block_kernel() { return &kAvx2Kernel; }

}  // namespace qross::qubo::detail

#else  // non-x86: no AVX2 arm in this binary.

namespace qross::qubo::detail {
const BlockKernel* avx2_block_kernel() { return nullptr; }
}  // namespace qross::qubo::detail

#endif
