#pragma once

// Canonical QUBO job fingerprints for the solve service's result cache and
// request coalescing.
//
// Two submissions share a fingerprint exactly when the service guarantees
// they would produce bit-identical SolveBatches:
//
//   * same solver kernel AND configuration (name + config_digest — two
//     differently-parameterised SimulatedAnnealers never collide);
//   * same canonical model: number of variables, offset, and the set of
//     structurally nonzero upper-triangular coefficients with their values.
//     Terms that were added and cancelled back to 0.0 do not contribute, so
//     two models built along different paths to the same coefficients hash
//     equal;
//   * same result-determining SolveOptions: num_replicas, num_sweeps, seed.
//     `num_threads` is EXCLUDED — the replica fan-out is bit-identical for
//     any thread count (PR 1's property tests) — as are the stop token and
//     progress callback, which never change a completed result.
//
// The fingerprint is 128 bits (two independent 64-bit lanes over the same
// stream), making accidental collisions across a service lifetime of
// millions of jobs negligible.  The stream is 64-bit words, one mixing step
// per word on each lane: the solver name (as its Hash64 digest), its
// config_digest, num_vars, the offset's bits, two words per canonical term
// — the packed (i << 32) | j, then the weight's bits — and the options.
// The packing bounds num_vars below 2^32 (a larger model is refused).
//
// These digests are the keys of every persisted cache file
// (tests/data/golden_fingerprints.txt pins them): changing the stream
// re-keys the cache, so a file written before still loads but never hits.

#include <cstddef>
#include <cstdint>

#include "qubo/model.hpp"
#include "solvers/solver.hpp"

namespace qross::service {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const {
    return static_cast<std::size_t>(fp.hi ^
                                    (fp.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Canonical fingerprint of the model alone (structure + weights + offset).
Fingerprint fingerprint_model(const qubo::QuboModel& model);

/// Full job key: solver identity + canonical model + normalised options.
Fingerprint fingerprint_job(const solvers::QuboSolver& solver,
                            const qubo::QuboModel& model,
                            const solvers::SolveOptions& options);

}  // namespace qross::service
