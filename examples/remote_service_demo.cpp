// Network front-end demo: a SolveService served over a socket, in process.
//
// Starts qross::net::Server on an ephemeral loopback port, connects the
// blocking Client, and walks the protocol end to end — submit with
// streamed status updates, a duplicate submission served from the server's
// cache, an explicit cancel, and a metrics round trip.  The same wire
// protocol runs between machines; `tools/qrossd.cpp` is the standalone
// daemon and `qross_cli remote batch` the production client.

#include <cstdio>
#include <optional>
#include <utility>

#include "net/client.hpp"
#include "net/server.hpp"
#include "problems/mvc/mvc.hpp"
#include "service/solve_service.hpp"

using namespace qross;

int main() {
  service::ServiceConfig service_config;
  service_config.num_workers = 2;
  service::SolveService service(service_config);

  net::ServerConfig server_config;
  server_config.listen.push_back(
      *net::Endpoint::parse("tcp:127.0.0.1:0"));  // ephemeral port
  net::Server server(service, server_config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  const auto endpoint = server.endpoints().front();
  std::printf("server listening on %s\n", endpoint.to_string().c_str());

  net::ClientConfig client_config;
  client_config.server = endpoint;
  net::Client client(client_config);
  if (!client.connect(&error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("negotiated protocol v%u\n\n", client.negotiated_version());

  // One MVC instance, solved remotely with streamed status updates.
  const auto instance = mvc::generate_random_mvc(48, 0.10, 42);
  net::RemoteJob job;
  job.solver = "da";
  job.model = instance.to_qubo(2.0);
  job.num_replicas = 8;
  job.num_sweeps = 40;
  job.stream_status = true;

  // Submits one job (cancelling it straight away when asked) and waits for
  // its Result frame; nullopt after printing a transport failure.
  const auto solve = [&client](const net::RemoteJob& remote, bool cancel)
      -> std::optional<std::pair<std::uint64_t, net::ResultFrame>> {
    const auto tag = client.submit_job(remote);
    if (!tag.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", tag.error().message.c_str());
      return std::nullopt;
    }
    if (cancel) client.cancel(tag.value());
    auto result = client.wait_result(tag.value());
    if (!result.ok()) {
      std::fprintf(stderr, "wait failed: %s\n",
                   result.error().message.c_str());
      return std::nullopt;
    }
    return std::pair{tag.value(), std::move(result).value()};
  };

  auto first = solve(job, false);
  if (!first) return 1;
  auto [tag, result] = std::move(*first);
  std::printf("job %llu: %s via %s (%zu solutions, best energy %.3f)\n",
              static_cast<unsigned long long>(tag),
              service::to_string(result.status),
              result.cache_hit ? "cache" : "solver",
              result.batch ? result.batch->size() : 0,
              result.batch && !result.batch->empty()
                  ? result.batch->results[result.batch->best_index()]
                        .qubo_energy
                  : 0.0);
  for (const auto status : client.status_updates(tag)) {
    std::printf("  streamed status: %s\n", service::to_string(status));
  }

  // The same job again: served from the daemon-side result cache,
  // bit-identical, no second solver run.
  const auto again = solve(job, false);
  if (!again) return 1;
  std::printf("job %llu: %s via %s\n",
              static_cast<unsigned long long>(again->first),
              service::to_string(again->second.status),
              again->second.cache_hit ? "cache" : "solver");

  // Cancel a long job right after submitting it.
  net::RemoteJob slow = job;
  slow.num_sweeps = 200000;
  slow.seed = 999;  // different fingerprint: no cache hit
  const auto cancelled = solve(slow, true);
  if (!cancelled) return 1;
  std::printf("job %llu: %s after cancel\n\n",
              static_cast<unsigned long long>(cancelled->first),
              service::to_string(cancelled->second.status));

  if (const auto metrics = client.fetch_metrics()) {
    const net::MetricsFrame& reply = metrics.value();
    std::printf("server metrics: %zu submitted, %zu cache hits, "
                "%zu solver invocations, %llu connections\n",
                reply.service.submitted, reply.service.cache_hits,
                reply.service.solver_invocations,
                static_cast<unsigned long long>(reply.connections_accepted));
  }
  server.stop();
  return 0;
}
