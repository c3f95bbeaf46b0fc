#include "service/fingerprint.hpp"

#include <string>

#include "common/hash.hpp"

namespace qross::service {

namespace {

// Two decorrelated lanes fed by one pass over the input stream — the model
// walk runs on every submit, so it must not run per lane.
struct DualHash {
  Hash64 hi{1};
  Hash64 lo{2};

  template <typename T>
  DualHash& mix(T value) {
    hi.mix(value);
    lo.mix(value);
    return *this;
  }

  Fingerprint digest() const { return {hi.digest(), lo.digest()}; }
};

// Mixes the canonical model stream: only structural nonzeros with their
// (i, j) coordinates contribute, so the digest is independent of how the
// coefficients were accumulated.
void mix_model(DualHash& h, const qubo::QuboModel& model) {
  h.mix(static_cast<std::uint64_t>(model.num_vars()));
  h.mix(model.offset());
  model.for_each_term([&](std::size_t i, std::size_t j, double w) {
    h.mix(static_cast<std::uint64_t>(i));
    h.mix(static_cast<std::uint64_t>(j));
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
  h.mix(std::string_view(solver.name()));
  h.mix(solver.config_digest());
  mix_model(h, model);
  h.mix(static_cast<std::uint64_t>(options.num_replicas));
  h.mix(static_cast<std::uint64_t>(options.num_sweeps));
  h.mix(options.seed);
  // num_threads, stop and on_sweep intentionally excluded (see header).
  return h.digest();
}

}  // namespace qross::service
