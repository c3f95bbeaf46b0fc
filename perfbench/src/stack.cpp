#include "stack.hpp"

#include <stdexcept>
#include <utility>

namespace perfbench {

std::unique_ptr<Stack> start_stack(StackOptions options) {
  auto stack = std::make_unique<Stack>();

  qross::service::ServiceConfig service_config;
  service_config.num_workers = kSolveWorkers;
  service_config.cache_path = options.cache_path;
  stack->service =
      std::make_unique<qross::service::SolveService>(service_config);

  qross::net::ServerConfig server_config;
  server_config.listen.push_back(
      *qross::net::Endpoint::parse("tcp:127.0.0.1:0"));
  if (options.tuner.has_value()) {
    // Two sessions are in flight at a time; the default quota of 4 never
    // refuses one.
    stack->tune = std::make_unique<qross::service::TuneService>(
        std::move(*options.tuner), *stack->service);
    server_config.tune = stack->tune.get();
  }
  stack->server =
      std::make_unique<qross::net::Server>(*stack->service, server_config);
  std::string error;
  if (!stack->server->start(&error)) {
    throw std::runtime_error("server start failed: " + error);
  }

  qross::net::ClientConfig client_config;
  client_config.server = stack->server->endpoints().front();
  client_config.request_timeout_ms = 60000;
  stack->client = std::make_unique<qross::net::Client>(client_config);
  if (!stack->client->connect(&error)) {
    throw std::runtime_error("client connect failed: " + error);
  }
  return stack;
}

}  // namespace perfbench
