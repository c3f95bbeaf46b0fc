// Micro-benchmarks (google-benchmark): QUBO evaluation and solver kernel
// throughput, plus surrogate inference latency.  Backs the paper's premise
// that "an evaluation on the solver surrogate is much cheaper/faster than
// a call to a QUBO solver" (§1) with concrete numbers on this machine.

#include <benchmark/benchmark.h>

#include <cmath>

#include <sstream>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "harness/dense_baseline.hpp"
#include "io/snapshot.hpp"
#include "net/protocol.hpp"
#include "problems/mvc/mvc.hpp"
#include "problems/tsp/formulation.hpp"
#include "problems/tsp/generators.hpp"
#include "qross/min_fitness.hpp"
#include "qubo/incremental.hpp"
#include "qubo/replica_block.hpp"
#include "qubo/simd.hpp"
#include "qubo/sparse.hpp"
#include "service/fingerprint.hpp"
#include "solvers/digital_annealer.hpp"
#include "solvers/qbsolv.hpp"
#include "solvers/simulated_annealer.hpp"
#include "surrogate/dataset.hpp"
#include "surrogate/features.hpp"
#include "surrogate/model.hpp"
#include "surrogate/pipeline.hpp"

namespace {

using namespace qross;

qubo::QuboModel make_tsp_qubo(std::size_t cities) {
  const auto instance = tsp::generate_uniform(cities, 0xBE);
  const auto problem = tsp::build_tsp_problem(instance);
  return problem.to_qubo(25.0);
}

qubo::QuboModel make_mvc_qubo(std::size_t vertices) {
  const auto instance = mvc::generate_random_mvc(vertices, 0.06, 0xBEEF);
  return instance.to_qubo(2.0);
}

void report_sparsity(benchmark::State& state, const qubo::QuboModel& model) {
  const auto adj = qubo::SparseAdjacency::build(model);
  state.counters["n"] = static_cast<double>(model.num_vars());
  state.counters["nnz"] = static_cast<double>(adj->num_nonzeros());
  state.counters["density"] = adj->density();
}

// The dense baseline evaluator lives in harness/dense_baseline.hpp, shared
// with bench_service_json (the machine-readable perf tracker).
using bench::DenseEvaluator;

/// One O(n + nnz) energy evaluation on the CSR adjacency — the cost of the
/// energy rescore qbsolv and analog_noise run per replica.
void BM_SparseFullEnergy(benchmark::State& state) {
  const auto model = make_tsp_qubo(static_cast<std::size_t>(state.range(0)));
  const auto adj = qubo::SparseAdjacency::build(model);
  Rng rng(1);
  qubo::Bits x(model.num_vars());
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj->energy(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  report_sparsity(state, model);
}
BENCHMARK(BM_SparseFullEnergy)->Arg(8)->Arg(12)->Arg(16);

void BM_IncrementalFlip(benchmark::State& state) {
  const auto model = make_tsp_qubo(static_cast<std::size_t>(state.range(0)));
  qubo::IncrementalEvaluator eval(qubo::SparseAdjacency::build(model));
  Rng rng(2);
  qubo::Bits x(model.num_vars());
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  eval.set_state(x);
  std::size_t i = 0;
  for (auto _ : state) {
    eval.apply_flip(i);
    i = (i + 17) % model.num_vars();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  report_sparsity(state, model);
}
BENCHMARK(BM_IncrementalFlip)->Arg(8)->Arg(12)->Arg(16);

// --- dense vs sparse sweep throughput --------------------------------------
//
// One "sweep" applies a flip at every variable in turn — the unit of work
// all solver kernels are built from.  Dense is the seed's per-replica
// matrix-copy evaluator; sparse is the shared-CSR IncrementalEvaluator.
// items_processed counts flips, so compare items_per_second directly.

template <typename Evaluator, typename Model>
void run_sweep_bench(benchmark::State& state, const Model& model,
                     Evaluator& eval) {
  const std::size_t n = model.num_vars();
  Rng rng(3);
  qubo::Bits x(n);
  for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
  eval.set_state(x);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) eval.apply_flip(i);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n));
  report_sparsity(state, model);
}

void BM_SweepDenseTsp(benchmark::State& state) {
  const auto model = make_tsp_qubo(static_cast<std::size_t>(state.range(0)));
  DenseEvaluator eval(model);
  run_sweep_bench(state, model, eval);
}
BENCHMARK(BM_SweepDenseTsp)->Arg(8)->Arg(12)->Arg(16);

void BM_SweepSparseTsp(benchmark::State& state) {
  const auto model = make_tsp_qubo(static_cast<std::size_t>(state.range(0)));
  qubo::IncrementalEvaluator eval(qubo::SparseAdjacency::build(model));
  run_sweep_bench(state, model, eval);
}
BENCHMARK(BM_SweepSparseTsp)->Arg(8)->Arg(12)->Arg(16);

void BM_SweepDenseMvc(benchmark::State& state) {
  const auto model = make_mvc_qubo(static_cast<std::size_t>(state.range(0)));
  DenseEvaluator eval(model);
  run_sweep_bench(state, model, eval);
}
BENCHMARK(BM_SweepDenseMvc)->Arg(128)->Arg(256)->Arg(512);

void BM_SweepSparseMvc(benchmark::State& state) {
  const auto model = make_mvc_qubo(static_cast<std::size_t>(state.range(0)));
  qubo::IncrementalEvaluator eval(qubo::SparseAdjacency::build(model));
  run_sweep_bench(state, model, eval);
}
BENCHMARK(BM_SweepSparseMvc)->Arg(128)->Arg(256)->Arg(512);

// --- blocked multi-replica sweep throughput (SIMD evaluation core) ---------
//
// The replica-block counterpart of BM_SweepSparse*: one forced-apply sweep
// advances 8 replicas at once over the shared CSR rows.  items_processed
// counts flips ACROSS lanes, so items_per_second divided by the matching
// BM_SweepSparse* number is the per-flip speedup of blocking (the ≥2×
// ISSUE 6 target on MVC n=512 compares BM_BlockSweepAvx2Mvc/512 against
// BM_SweepSparseMvc/512).

void run_block_sweep_bench(benchmark::State& state,
                           const qubo::QuboModel& model, qubo::SimdKind kind) {
  constexpr std::size_t kLanes = 8;
  const auto adj = qubo::SparseAdjacency::build(model);
  qubo::ReplicaBlockEvaluator eval(adj, kLanes, kind);
  if (eval.kind() != kind) {
    state.SkipWithError("requested SIMD arm unavailable on this CPU");
    return;
  }
  const std::size_t n = model.num_vars();
  Rng rng(3);
  qubo::Bits x(n);
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (auto& b : x) b = rng.bernoulli(0.5) ? 1 : 0;
    eval.set_state(l, x);
  }
  AlignedVector<double> deltas(eval.lane_stride(), 0.0);
  std::vector<std::uint64_t> accept(eval.mask_words(), 0);
  for (std::size_t l = 0; l < kLanes; ++l) {
    accept[l / 64] |= std::uint64_t{1} << (l % 64);
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      eval.compute_flip_deltas(i, deltas.data());
      eval.apply_flips(i, accept.data(), deltas.data());
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * n * kLanes));
  state.counters["lanes"] = static_cast<double>(kLanes);
  report_sparsity(state, model);
}

void BM_BlockSweepScalarMvc(benchmark::State& state) {
  run_block_sweep_bench(state,
                        make_mvc_qubo(static_cast<std::size_t>(state.range(0))),
                        qubo::SimdKind::kScalar);
}
BENCHMARK(BM_BlockSweepScalarMvc)->Arg(128)->Arg(256)->Arg(512);

void BM_BlockSweepAvx2Mvc(benchmark::State& state) {
  run_block_sweep_bench(state,
                        make_mvc_qubo(static_cast<std::size_t>(state.range(0))),
                        qubo::SimdKind::kAvx2);
}
BENCHMARK(BM_BlockSweepAvx2Mvc)->Arg(128)->Arg(256)->Arg(512);

void BM_BlockSweepScalarTsp(benchmark::State& state) {
  run_block_sweep_bench(state,
                        make_tsp_qubo(static_cast<std::size_t>(state.range(0))),
                        qubo::SimdKind::kScalar);
}
BENCHMARK(BM_BlockSweepScalarTsp)->Arg(8)->Arg(12)->Arg(16);

void BM_BlockSweepAvx2Tsp(benchmark::State& state) {
  run_block_sweep_bench(state,
                        make_tsp_qubo(static_cast<std::size_t>(state.range(0))),
                        qubo::SimdKind::kAvx2);
}
BENCHMARK(BM_BlockSweepAvx2Tsp)->Arg(8)->Arg(12)->Arg(16);

void BM_SimulatedAnnealerCall(benchmark::State& state) {
  const auto model = make_tsp_qubo(static_cast<std::size_t>(state.range(0)));
  const solvers::SimulatedAnnealer solver;
  solvers::SolveOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 50;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    options.seed = ++seed;
    benchmark::DoNotOptimize(solver.solve(model, options));
  }
}
BENCHMARK(BM_SimulatedAnnealerCall)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

/// One DA solve call in the end-to-end benchmark's two kernel shapes:
/// range(0) cities (10 = the solve_fresh job, 12 = the tune_remote probe),
/// 8 replicas x range(1) sweeps, on the arm range(2) (0 scalar, 1 AVX2) —
/// the layer-level number behind solvers.kernel_span_ms_p50.  The arms
/// return identical batches; only the time differs.
void BM_DigitalAnnealerCall(benchmark::State& state) {
  const auto model = make_tsp_qubo(static_cast<std::size_t>(state.range(0)));
  const auto kind =
      state.range(2) == 0 ? qubo::SimdKind::kScalar : qubo::SimdKind::kAvx2;
  const qubo::SimdKind previous = qubo::active_simd_kind();
  if (qubo::set_simd_kind(kind) != kind) {
    qubo::set_simd_kind(previous);
    state.SkipWithError("requested SIMD arm unavailable on this CPU");
    return;
  }
  const solvers::DigitalAnnealer solver;
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = static_cast<std::size_t>(state.range(1));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    options.seed = ++seed;
    benchmark::DoNotOptimize(solver.solve(model, options));
  }
  qubo::set_simd_kind(previous);
  state.SetLabel(qubo::to_string(kind));
}
BENCHMARK(BM_DigitalAnnealerCall)
    ->ArgNames({"cities", "sweeps", "avx2"})
    ->Args({10, 40, 0})
    ->Args({10, 40, 1})
    ->Args({12, 20, 0})
    ->Args({12, 20, 1})
    ->Unit(benchmark::kMillisecond);

/// Full qbsolv call on an MVC instance — the hybrid whose per-replica
/// energy rescore used to be a dense O(n^2) model.energy.
void BM_QbsolvCallMvc(benchmark::State& state) {
  const auto model = make_mvc_qubo(static_cast<std::size_t>(state.range(0)));
  const solvers::Qbsolv solver;
  solvers::SolveOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 20;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    options.seed = ++seed;
    benchmark::DoNotOptimize(solver.solve(model, options));
  }
  report_sparsity(state, model);
}
BENCHMARK(BM_QbsolvCallMvc)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

/// One result-cache key: what the service computes for every submit, on the
/// server's reactor thread for a remote job.  8 cities is the wire_batch job
/// shape (64 variables, 960 terms); terms_per_s is the model walk's rate.
void BM_FingerprintJob(benchmark::State& state) {
  const auto model = make_tsp_qubo(static_cast<std::size_t>(state.range(0)));
  const solvers::DigitalAnnealer solver;
  solvers::SolveOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::fingerprint_job(solver, model, options));
  }
  state.counters["terms_per_s"] = benchmark::Counter(
      static_cast<double>(model.num_nonzeros()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["terms"] = static_cast<double>(model.num_nonzeros());
}
BENCHMARK(BM_FingerprintJob)->Arg(8)->Arg(12)->Arg(16);

/// The record checksum of each version (range(0)) over a 64-B payload
/// (range(1) = 0) or the SubmitJob payload of a cache-warm perfbench
/// wire_batch job (range(1) = 1: 8-city TSP, da, 4 replicas x 30 sweeps).
/// It runs twice per frame: when the sender frames it and when the
/// receiver's FrameBuffer verifies it.
void BM_RecordChecksum(benchmark::State& state) {
  const auto version = static_cast<std::uint32_t>(state.range(0));
  std::vector<std::uint8_t> payload;
  if (state.range(1) == 0) {
    Rng rng(64);
    payload.resize(64);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
  } else {
    net::SubmitJobFrame submit;
    submit.tag = 1;
    submit.num_replicas = 4;
    submit.num_sweeps = 30;
    submit.model = make_tsp_qubo(8);
    payload = net::encode_submit(submit);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::record_checksum(version, payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(payload.size()) *
                          state.iterations());
  state.counters["bytes"] = static_cast<double>(payload.size());
}
BENCHMARK(BM_RecordChecksum)->ArgsProduct({{1, 2}, {0, 1}});

void BM_FeatureExtraction(benchmark::State& state) {
  const auto instance =
      tsp::generate_uniform(static_cast<std::size_t>(state.range(0)), 0xFE);
  for (auto _ : state) {
    benchmark::DoNotOptimize(surrogate::extract_features(instance));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(10)->Arg(20);

/// Surrogate inference vs a solver call — the paper's core speed claim.
void BM_SurrogatePredict(benchmark::State& state) {
  // Train a tiny surrogate once, outside the timed region.
  static const surrogate::SolverSurrogate* model = [] {
    surrogate::Dataset dataset;
    Rng rng(5);
    for (std::size_t id = 0; id < 6; ++id) {
      const auto inst = tsp::generate_uniform(8, id);
      const surrogate::PreparedTspInstance prepared(inst);
      surrogate::DatasetRow row;
      row.features = surrogate::extract_features(prepared.prepared());
      row.scale_anchor = surrogate::scale_anchor(row.features);
      for (int k = 0; k < 12; ++k) {
        row.instance_id = id;
        row.relaxation_parameter = std::exp(rng.uniform(0.0, 5.0));
        row.pf = rng.uniform();
        row.energy_avg = row.scale_anchor * rng.uniform(0.9, 1.4);
        row.energy_std = row.scale_anchor * 0.05;
        dataset.rows.push_back(row);
      }
    }
    surrogate::SurrogateConfig config;
    config.pf_training.max_epochs = 50;
    config.pf_training.patience = 50;
    config.energy_training.max_epochs = 50;
    auto* m = new surrogate::SolverSurrogate(config);
    m->train(dataset);
    return m;
  }();
  const auto instance = tsp::generate_uniform(10, 0x51);
  const surrogate::PreparedTspInstance prepared(instance);
  const auto features = surrogate::extract_features(prepared.prepared());
  const double anchor = surrogate::scale_anchor(features);
  double a = 1.0;
  for (auto _ : state) {
    a = a > 90.0 ? 1.0 : a + 1.0;
    benchmark::DoNotOptimize(model->predict(features, anchor, a));
  }
}
BENCHMARK(BM_SurrogatePredict);

void BM_ExpectedMinFitness(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::expected_min_fitness(0.4, 100.0, 12.0, 64));
  }
}
BENCHMARK(BM_ExpectedMinFitness);

}  // namespace

BENCHMARK_MAIN();
