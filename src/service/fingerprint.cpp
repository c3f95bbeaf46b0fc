#include "service/fingerprint.hpp"

#include <bit>
#include <limits>
#include <string_view>

#include "common/assert.hpp"
#include "common/hash.hpp"

namespace qross::service {

namespace {

// Two decorrelated HashLanes (own seed, multiplier and shift) fed by one pass
// over the stream — the model walk runs on every submit, so it must not run
// per lane.
struct DualHash {
  HashLane<0x9e3779b97f4a7c15ULL, 32> hi{0xcbf29ce484222325ULL};
  HashLane<0xff51afd7ed558ccdULL, 29> lo{0x84222325cbf29ce4ULL};

  DualHash& mix(std::uint64_t word) {
    hi.mix(word);
    lo.mix(word);
    return *this;
  }

  DualHash& mix(double value) {
    return mix(std::bit_cast<std::uint64_t>(value));
  }

  Fingerprint digest() const { return {hi.digest(), lo.digest()}; }
};

// Mixes the canonical model stream: only structural nonzeros contribute, two
// words each — the packed (i << 32) | j and the weight's bits — so the digest
// is independent of how the coefficients were accumulated.
void mix_model(DualHash& h, const qubo::QuboModel& model) {
  QROSS_REQUIRE(model.num_vars() <= std::numeric_limits<std::uint32_t>::max(),
                "fingerprint packs term indices into 32 bits");
  h.mix(static_cast<std::uint64_t>(model.num_vars()));
  h.mix(model.offset());
  model.for_each_term([&](std::size_t i, std::size_t j, double w) {
    h.mix((static_cast<std::uint64_t>(i) << 32) | j);
    h.mix(w);
  });
}

}  // namespace

Fingerprint fingerprint_model(const qubo::QuboModel& model) {
  DualHash h;
  mix_model(h, model);
  return h.digest();
}

Fingerprint fingerprint_job(const solvers::QuboSolver& solver,
                            const qubo::QuboModel& model,
                            const solvers::SolveOptions& options) {
  DualHash h;
  // The name enters as one word, its Hash64 digest (as config_digest does).
  h.mix(Hash64().mix(std::string_view(solver.name())).digest());
  h.mix(solver.config_digest());
  mix_model(h, model);
  h.mix(static_cast<std::uint64_t>(options.num_replicas));
  h.mix(static_cast<std::uint64_t>(options.num_sweeps));
  h.mix(options.seed);
  // num_threads, stop and on_sweep intentionally excluded (see header).
  return h.digest();
}

}  // namespace qross::service
