#pragma once

// The three closed-loop workloads (see README.md for why each exists).
//
// A workload owns its inputs, generated from the run seed, and drives one
// Stack through its single client connection.  run() measures one timed
// window: new operations start only while the window is open, then the
// in-flight ones drain, so every attempted operation is counted.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stack.hpp"

namespace perfbench {

/// One request as the client saw it (traced windows only): a job, or a tune
/// session on tune_remote.
struct Request {
  std::uint64_t trace_id = 0;
  Clock::time_point submit_begin{};
  Clock::time_point submit_end{};
  Clock::time_point observed{};  ///< terminal frame taken from the client
  double wait_ms = 0.0;          ///< ResultFrame::wait_ms (jobs only)
  /// ResultFrame::run_ms, or TuneResult::wall_ms for a session.
  double run_ms = 0.0;
  std::size_t wire_bytes = 0;    ///< framed request + every reply frame
  std::uint64_t solver_calls = 0;  ///< TuneResult::solver_invocations
};

struct Window {
  std::size_t attempted = 0;
  std::size_t ok = 0;  ///< completed `done` and passed the inline checks
  double wall_s = 0.0;
  double cpu_ms = 0.0;  ///< process user+sys: client, reactor and workers
  std::vector<double> op_latency_ms;
  std::vector<Request> requests;  ///< traced windows only
  qross::service::ServiceMetrics service_before, service_after;
  qross::service::TuneServiceMetrics tune_before, tune_after;
  qross::net::ServerStats server_before, server_after;
  std::uint64_t journal_bytes = 0;  ///< cache journal growth in the window
  std::vector<std::string> failures;  ///< output-check failures

  /// Records an output-check failure; the first few messages are kept.
  void fail(std::string message) {
    if (failures.size() < 16) failures.push_back(std::move(message));
  }

  double throughput() const {
    return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
  }
};

/// Kernel work of one solver execution, for the computed flip rate.
struct KernelShape {
  std::size_t replicas = 0;
  std::size_t sweeps = 0;
  std::size_t variables = 0;

  double flip_proposals() const {
    return static_cast<double>(replicas * sweeps * variables);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Options for the stack this workload runs against.
  virtual StackOptions stack_options() const = 0;
  /// Set-up work after the stack starts: hot-set fill, warm-up jobs.
  virtual void warm_up(Stack& stack) = 0;
  /// One timed window of `seconds`; `traced` also fills Window::requests
  /// and records the client-side spans.  A traced window may end early to
  /// keep the trace ring from wrapping.
  Window run(Stack& stack, double seconds, bool traced);
  /// Output checks made after the window, untimed: counter deltas and
  /// in-process reference runs.  They append to Window::failures, and a
  /// sampled op that fails its check no longer counts as ok.
  virtual void verify(Stack& stack, Window& window) = 0;
  /// Mean optimality gap over the quality prefix, in percent.
  virtual double gap_pct() const = 0;
  /// Shape of one kernel execution; zero replicas when none run.
  virtual KernelShape kernel_shape() const = 0;

 protected:
  /// Issues operations while `open()` holds, then drains.
  virtual void drive(Stack& stack, Window& window, bool traced,
                     const std::function<bool()>& open) = 0;

  /// Routes every frame that arrives within one bounded wait.  Throws when
  /// the connection is lost or the stack has stopped answering, so a hung
  /// stack fails the run instead of stalling it.
  void pump(qross::net::Client& client) const;

  std::uint64_t next_trace_id_ = 1;
  /// Set-up must finish by this instant; run() moves it past the drain.
  Clock::time_point give_up_ = Clock::now() + std::chrono::seconds(120);
};

/// Known names: wire_batch, solve_fresh, tune_remote.  Constructing one
/// generates its inputs (and, for tune_remote, fits the surrogate).
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

}  // namespace perfbench
