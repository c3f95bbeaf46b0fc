#pragma once

// Deterministic random number generation for QROSS.
//
// Every stochastic component in the library (solvers, generators, trainers,
// tuners) takes an explicit 64-bit seed and derives its randomness from the
// generators below.  This makes every experiment in bench/ reproducible
// bit-for-bit on a given platform.
//
// Rng is xoshiro256** (Blackman & Vigna), seeded via splitmix64 so that
// low-entropy seeds (0, 1, 2, ...) still produce well-distributed streams.

#include <array>
#include <cstdint>
#include <vector>

namespace qross {

/// splitmix64 step; used for seeding and for deriving child seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives a child seed from a parent seed and a stream index.  Used to give
/// each replica / worker an independent, reproducible stream.
std::uint64_t derive_seed(std::uint64_t parent, std::uint64_t stream);

/// xoshiro256** generator with convenience sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// UniformRandomBitGenerator interface (usable with <random> adapters).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// The raw xoshiro256** state words, for kernels that step several
  /// generators in lockstep (qubo::ReplicaBlockEvaluator::trial_scan) and
  /// must leave each exactly where next() would have.
  const std::array<std::uint64_t, 4>& state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& state) { s_ = state; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached pair).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with rate lambda (> 0).
  double exponential(double lambda);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace qross
