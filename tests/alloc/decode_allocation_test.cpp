// Allocation bounds of the model decoder and of the client's submit path,
// measured with a counting global operator new.  This suite is its own
// binary (qross_alloc_tests) so the replacement allocator stays out of the
// main suite.
//
// The case it guards: a model payload declares its variable count before
// any term, and that count commits the receiver to n^2-sized work (a
// SubmitTune instance unpacks into an 8·n^2-byte distance matrix).  When
// QuboModel was a dense n x n matrix, a 16-byte payload claiming 8192
// variables allocated 512 MiB before the decoder read a single term.  The
// model is O(n + nnz) now, but the decoder still refuses a count its
// payload does not pay for.
//
// The client side: submit_job() encodes the caller's job once, so its
// allocations must not scale with the model (a copy of the model costs one
// allocation per row).

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "io/binary.hpp"
#include "io/snapshot.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "qubo/model.hpp"

namespace {

thread_local bool g_counting = false;
thread_local std::size_t g_largest = 0;
thread_local std::size_t g_total = 0;
thread_local std::size_t g_calls = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    g_largest = std::max(g_largest, size);
    g_total += size;
    ++g_calls;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qross {
namespace {

/// Counts this thread's operator new calls between construction and stop().
class AllocationProbe {
 public:
  AllocationProbe() {
    g_largest = 0;
    g_total = 0;
    g_calls = 0;
    g_counting = true;
  }
  ~AllocationProbe() { stop(); }
  void stop() { g_counting = false; }
  std::size_t largest() const { return g_largest; }
  std::size_t total() const { return g_total; }
  std::size_t calls() const { return g_calls; }
};

constexpr std::size_t kKiB = 1024;

std::vector<std::uint8_t> model_header(std::uint32_t num_vars,
                                       std::uint32_t nnz) {
  io::ByteWriter out;
  out.u32(num_vars);
  out.f64(0.0);
  out.u32(nnz);
  return out.take();
}

TEST(DecodeAllocation, SixteenByteModelClaimingMaxVarsIsRefusedUnallocated) {
  const auto payload = model_header(8192, 0);
  ASSERT_EQ(payload.size(), 16u);
  io::ByteReader in(payload);
  AllocationProbe probe;
  EXPECT_THROW(io::decode_model(in), io::DecodeError);
  probe.stop();
  // Only the error message is allocated.
  EXPECT_LT(probe.total(), 64 * kKiB);
}

TEST(DecodeAllocation, SubmitFrameCarryingTheBombIsRefusedUnallocated) {
  net::SubmitJobFrame submit;
  submit.solver = "da";
  submit.model = qubo::QuboModel(0);
  auto payload = net::encode_submit(submit);
  // The model is the payload's last 16 bytes but the 8-byte trace id; its
  // first field is the variable count.
  const std::size_t num_vars_at = payload.size() - 8 - 16;
  const std::uint32_t bomb = 8192;
  for (std::size_t k = 0; k < 4; ++k) {
    payload[num_vars_at + k] = static_cast<std::uint8_t>(bomb >> (8 * k));
  }
  AllocationProbe probe;
  EXPECT_THROW(net::decode_submit(payload), io::DecodeError);
  probe.stop();
  EXPECT_LT(probe.largest(), 64 * kKiB);
}

TEST(DecodeAllocation, TermCountBeyondThePayloadIsRefusedUnallocated) {
  // 4096 variables with 1M promised terms but none present: the promise
  // alone must not buy anything.
  const auto payload = model_header(4096, 1u << 20);
  io::ByteReader in(payload);
  AllocationProbe probe;
  EXPECT_THROW(io::decode_model(in), io::DecodeError);
  probe.stop();
  EXPECT_LT(probe.total(), 64 * kKiB);
}

TEST(DecodeAllocation, MatrixGrowsOnlyWithThePayload) {
  // At the free size a termless model decodes into its empty rows alone,
  // with no n x n matrix behind them.
  {
    const auto payload = model_header(1024, 0);
    io::ByteReader in(payload);
    AllocationProbe probe;
    const auto model = io::decode_model(in);
    probe.stop();
    EXPECT_EQ(model.num_vars(), 1024u);
    EXPECT_LT(probe.total(), 64 * kKiB);
  }
  // Past it, a sparse model decodes once its payload pays for 8·n^2 bytes:
  // 2048 variables need 2048 terms, here one per diagonal.  The probe sees
  // the terms stored, so the bounds above are not vacuous.
  qubo::QuboModel sparse(2048);
  for (std::size_t i = 0; i < 2048; ++i) sparse.add_term(i, i, -1.0);
  io::ByteWriter out;
  io::encode_model(out, sparse);
  {
    io::ByteReader in(out.bytes());
    AllocationProbe probe;
    const auto model = io::decode_model(in);
    probe.stop();
    EXPECT_EQ(model.num_vars(), 2048u);
    EXPECT_EQ(model.coefficient(2047, 2047), -1.0);
    EXPECT_GE(probe.total(), 2048 * 16u);
  }
  // Half the terms and the same 2048 variables: refused, unallocated.
  const auto half = model_header(2048, 1024);
  std::vector<std::uint8_t> bytes(half);
  bytes.insert(bytes.end(), out.bytes().begin() + 16,
               out.bytes().begin() + 16 + 1024 * 16);
  io::ByteReader in(bytes);
  AllocationProbe probe;
  EXPECT_THROW(io::decode_model(in), io::DecodeError);
  probe.stop();
  EXPECT_LT(probe.total(), 64 * kKiB);
}

/// Allocations of one submit_job() of an `n`-variable model with a term in
/// every row, against a peer that acknowledges the Hello and then only
/// reads.
std::size_t submit_allocations(const net::Endpoint& endpoint, std::size_t n) {
  qubo::QuboModel model(n);
  for (std::size_t i = 0; i < n; ++i) model.add_term(i, i, -1.0);
  net::RemoteJob job;
  job.model = std::move(model);
  net::ClientConfig config;
  config.server = endpoint;
  net::Client client(config);
  std::string error;
  EXPECT_TRUE(client.connect(&error)) << error;
  AllocationProbe probe;
  const auto tag = client.submit_job(job);
  probe.stop();
  EXPECT_TRUE(tag.ok()) << tag.error().message;
  return probe.calls();
}

TEST(ClientAllocation, SubmitAllocationsDoNotGrowWithTheModel) {
  std::string error;
  auto listener =
      net::listen_on(*net::Endpoint::parse("tcp:127.0.0.1:0"), &error);
  ASSERT_TRUE(listener.valid()) << error;
  const auto endpoint = net::local_endpoint(listener.fd());
  ASSERT_TRUE(endpoint.has_value());
  // One connection per measured submit; each reads until its client hangs
  // up.
  std::thread peer([&] {
    for (int k = 0; k < 2; ++k) {
      const int fd = ::accept(listener.fd(), nullptr, nullptr);
      if (fd < 0) return;
      net::Socket conn(fd);
      net::FrameBuffer in;
      std::vector<std::uint8_t> buf(65536);
      while (true) {
        const long n = conn.recv_some(buf.data(), buf.size(), 10000);
        if (n <= 0) break;
        in.append(buf.data(), static_cast<std::size_t>(n));
        net::Frame f;
        while (in.next(&f) == net::FrameBuffer::Status::frame) {
          if (f.type != io::kRecordNetHello) continue;
          const auto ack =
              net::frame(io::kRecordNetHelloAck, net::encode_hello_ack({}));
          conn.send_all(ack.data(), ack.size());
          in.set_version(net::kProtocolVersion);
        }
      }
    }
  });
  const std::size_t small = submit_allocations(*endpoint, 16);
  const std::size_t large = submit_allocations(*endpoint, 256);
  peer.join();
  EXPECT_LE(std::max(small, large) - std::min(small, large), 2u)
      << "submit_job allocated " << small << " times for 16 rows and "
      << large << " times for 256 rows";
}

}  // namespace
}  // namespace qross
