#pragma once

// Endian-explicit binary primitives for the persistence layer (src/io/).
//
// Every multi-byte value is encoded little-endian, so files written on any
// supported target decode identically everywhere (the in-memory
// representation never leaks into the format).  On little-endian targets
// the native bytes already are the format and travel with one memcpy; other
// targets take the portable byte loop.  Doubles travel as their IEEE-754
// bit pattern via std::bit_cast, making round trips bit-identical —
// including NaN payloads and -0.0.
//
// ByteWriter appends into a growable buffer; ByteReader consumes a borrowed
// span with hard bounds checks.  A reader overrun throws DecodeError, which
// the record scanner (io/snapshot) catches and converts into a skipped
// record — corrupt input is never fatal above this layer.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace qross::io {

/// Thrown by ByteReader on truncated or malformed input.  Internal to the
/// io layer: public entry points (scan, CacheStore::load) catch it and
/// degrade gracefully instead of propagating.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends after the bytes already in `bytes` (take() hands them back).
  explicit ByteWriter(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  /// Room for `size` more bytes, so a caller that knows its encoded size
  /// allocates once.  Growth stays geometric: repeated small reserves on a
  /// long-lived buffer never degrade into one reallocation per call.
  void reserve(std::size_t size) {
    const std::size_t need = bytes_.size() + size;
    if (need > bytes_.capacity()) {
      bytes_.reserve(std::max(need, 2 * bytes_.capacity()));
    }
  }

  void u8(std::uint8_t value) { bytes_.push_back(value); }
  void u32(std::uint32_t value) { put(value); }
  void u64(std::uint64_t value) { put(value); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }

  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  std::size_t size() const { return bytes_.size(); }
  std::span<const std::uint8_t> bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  template <typename T>
  void put(T value) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(bytes_.data() + at, &value, sizeof(T));
    } else {
      for (std::size_t k = 0; k < sizeof(T); ++k) {
        bytes_[at + k] = static_cast<std::uint8_t>(value >> (8 * k));
      }
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - offset_; }
  std::size_t offset() const { return offset_; }

  std::uint8_t u8() {
    require(1);
    return bytes_[offset_++];
  }

  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::span<const std::uint8_t> raw(std::size_t size) {
    require(size);
    const auto view = bytes_.subspan(offset_, size);
    offset_ += size;
    return view;
  }

 private:
  template <typename T>
  T get() {
    require(sizeof(T));
    T value = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    } else {
      for (std::size_t k = 0; k < sizeof(T); ++k) {
        value |= static_cast<T>(bytes_[offset_ + k]) << (8 * k);
      }
    }
    offset_ += sizeof(T);
    return value;
  }

  void require(std::size_t size) const {
    if (remaining() < size) {
      throw DecodeError("truncated input: need " + std::to_string(size) +
                        " bytes, have " + std::to_string(remaining()));
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// The v1 record checksum: the repo's deterministic 64-bit stream hash
/// (Hash64, byte-wise FNV-1a with its own salt) over the payload bytes.
/// Its value is part of every v1 wire frame and snapshot record, and of the
/// committed solver digests.  Not cryptographic — it detects corruption,
/// not tampering.  Its one multiply per byte is one long dependency chain.
inline std::uint64_t checksum64(std::span<const std::uint8_t> bytes) {
  return Hash64(0xC5C5C5C5C5C5C5C5ULL)
      .mix(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size()))
      .digest();
}

/// The v2 record checksum.  The payload is read as little-endian 64-bit
/// words, the last one zero-padded; word i feeds HashLane i % 4, so four
/// independent multiply chains run side by side.  The four lane states and
/// the byte length then fold through one more lane into splitmix_finalize.
/// Each step is a bijection of its state, so changing any one word — any
/// single byte — always changes the checksum.
std::uint64_t checksum64_v2(std::span<const std::uint8_t> bytes);

/// Reads an entire file into memory; nullopt when the file is missing or
/// unreadable (both are "no data", never an error, at this layer).
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Writes `bytes` to `path` atomically: a sibling temp file is written,
/// flushed, and renamed over the target, so readers see either the old or
/// the new snapshot — never a half-written one.  Returns false on I/O error.
bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

}  // namespace qross::io
