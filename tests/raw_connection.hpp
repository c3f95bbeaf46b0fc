#pragma once

// Shared test helper: a raw protocol peer over a real socket.  It writes
// frames byte-for-byte as given — tags, corrupt checksums, truncated
// payloads — so tests can drive the server where net::Client never goes.
// send_frame() and read_frame() follow the handshake's version rule: the
// handshake version until a HelloAck arrives, the acknowledged one after.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace qross::testing {

class RawConnection {
 public:
  explicit RawConnection(const net::Endpoint& endpoint) {
    std::string error;
    sock_ = net::connect_to(endpoint, 2000, &error);
    EXPECT_TRUE(sock_.valid()) << error;
  }

  bool send_bytes(std::span<const std::uint8_t> bytes) {
    return sock_.send_all(bytes.data(), bytes.size());
  }

  bool send_frame(std::uint32_t type, std::span<const std::uint8_t> payload) {
    return send_bytes(net::frame(type, payload, buffer_.version()));
  }

  /// Reads until one full frame arrives (or `timeout` passes).
  std::optional<net::Frame> read_frame(
      std::chrono::milliseconds timeout = std::chrono::seconds(3)) {
    net::Frame out;
    std::uint8_t buf[4096];
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      const auto status = buffer_.next(&out);
      if (status == net::FrameBuffer::Status::frame) {
        if (out.type == io::kRecordNetHelloAck) {
          buffer_.set_version(
              net::decode_hello_ack(out.payload).protocol_version);
        }
        return out;
      }
      if (status != net::FrameBuffer::Status::need_more) return std::nullopt;
      const long n = sock_.recv_some(buf, sizeof(buf), 100);
      if (n == -2) continue;
      if (n <= 0) return std::nullopt;
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
    return std::nullopt;
  }

  bool handshake() {
    if (!send_frame(io::kRecordNetHello, net::encode_hello({}))) return false;
    const auto ack = read_frame();
    return ack.has_value() && ack->type == io::kRecordNetHelloAck;
  }

  void half_close() { ::shutdown(sock_.fd(), SHUT_WR); }

  const net::Socket& socket() const { return sock_; }

 private:
  net::Socket sock_;
  net::FrameBuffer buffer_;
};

}  // namespace qross::testing
