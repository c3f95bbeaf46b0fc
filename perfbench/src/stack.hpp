#pragma once

// The serving stack under test, assembled in-process exactly as qrossd
// assembles it: SolveService (2 workers) + optional TuneService + one
// net::Server reactor on an ephemeral loopback TCP port, and one net::Client
// connection driven by the benchmark's single client thread.

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "net/client.hpp"
#include "net/server.hpp"
#include "qross/facade.hpp"
#include "service/solve_service.hpp"
#include "service/tune_service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Solve workers of every stack.  With the reactor and the client thread
/// this fills a 4-core box without oversubscribing it.
inline constexpr std::size_t kSolveWorkers = 2;

struct StackOptions {
  /// Persistent result-cache file; empty = in-memory cache only.
  std::string cache_path;
  /// When set, a TuneService serving this tuner is attached to the server.
  std::optional<qross::core::QrossTuner> tuner;
};

/// Members are declared in dependency order, so destruction tears the stack
/// down client-first and service-last.
struct Stack {
  std::unique_ptr<qross::service::SolveService> service;
  std::unique_ptr<qross::service::TuneService> tune;
  std::unique_ptr<qross::net::Server> server;
  std::unique_ptr<qross::net::Client> client;
};

/// Starts the stack and connects the client; throws std::runtime_error on
/// any failure.
std::unique_ptr<Stack> start_stack(StackOptions options);

}  // namespace perfbench
