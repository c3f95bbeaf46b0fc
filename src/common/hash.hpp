#pragma once

// Deterministic 64-bit stream hashers.  Hash64 (FNV-1a over bytes with a
// splitmix64 finaliser) defines the solvers' config_digest values and the
// v1 record checksum (io::checksum64), so its output is part of the v1 wire
// and journal bytes.  HashLane is the word-at-a-time step shared by the
// result-cache key (service/fingerprint.cpp) and the v2 record checksum
// (io::checksum64_v2).  NOT cryptographic hashes, and not stable across
// platforms with different double representations (all supported targets
// are IEEE-754 little-endian).
//
// Doubles are mixed via their bit pattern (std::bit_cast), so digests
// distinguish values that compare equal but are distinct bit patterns only
// for the -0.0/0.0 pair.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qross {

/// splitmix64's finaliser: spreads every input bit over all output bits.
constexpr std::uint64_t splitmix_finalize(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// One lane of a word stream.  Each step xors a 64-bit word into the state,
/// multiplies by an odd constant and folds the high half back down with an
/// xorshift; all three are bijections of the state, so no word can collapse
/// it or cancel what came before.
template <std::uint64_t kMul, int kShift>
struct HashLane {
  std::uint64_t state;

  constexpr void mix(std::uint64_t word) {
    state ^= word;
    state *= kMul;
    state ^= state >> kShift;
  }

  constexpr std::uint64_t digest() const { return splitmix_finalize(state); }
};

class Hash64 {
 public:
  /// `salt` decorrelates independent streams (checksum64 uses its own).
  explicit constexpr Hash64(std::uint64_t salt = 0)
      : state_(kOffsetBasis ^ (salt * 0x9e3779b97f4a7c15ULL)) {}

  constexpr Hash64& mix(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      state_ ^= (value >> shift) & 0xffULL;
      state_ *= kPrime;
    }
    return *this;
  }

  Hash64& mix(double value) {
    return mix(std::bit_cast<std::uint64_t>(value));
  }

  constexpr Hash64& mix(std::string_view text) {
    mix(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= kPrime;
    }
    return *this;
  }

  /// Final avalanche so that short streams still spread over all bits.
  constexpr std::uint64_t digest() const { return splitmix_finalize(state_); }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  std::uint64_t state_;
};

}  // namespace qross
