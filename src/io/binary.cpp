#include "io/binary.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace qross::io {

namespace {

using ChecksumLane = HashLane<0x9e3779b97f4a7c15ULL, 32>;

std::uint64_t load_le64(const std::uint8_t* bytes) {
  std::uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, bytes, sizeof(word));
  } else {
    for (std::size_t k = 0; k < sizeof(word); ++k) {
      word |= static_cast<std::uint64_t>(bytes[k]) << (8 * k);
    }
  }
  return word;
}

}  // namespace

std::uint64_t checksum64_v2(std::span<const std::uint8_t> bytes) {
  ChecksumLane lanes[4] = {{0xC5C5C5C5C5C5C5C5ULL},
                           {0x5C5C5C5C5C5C5C5CULL},
                           {0xA3A3A3A3A3A3A3A3ULL},
                           {0x3A3A3A3A3A3A3A3AULL}};
  const std::uint8_t* at = bytes.data();
  std::size_t left = bytes.size();
  for (; left >= 32; at += 32, left -= 32) {
    lanes[0].mix(load_le64(at));
    lanes[1].mix(load_le64(at + 8));
    lanes[2].mix(load_le64(at + 16));
    lanes[3].mix(load_le64(at + 24));
  }
  std::size_t lane = 0;
  for (; left >= 8; at += 8, left -= 8) lanes[lane++].mix(load_le64(at));
  if (left > 0) {
    std::uint64_t tail = 0;
    for (std::size_t k = 0; k < left; ++k) {
      tail |= static_cast<std::uint64_t>(at[k]) << (8 * k);
    }
    lanes[lane].mix(tail);
  }
  ChecksumLane fold{bytes.size()};
  for (const ChecksumLane& l : lanes) fold.mix(l.state);
  return fold.digest();
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file.good()) return std::nullopt;
  const auto size = static_cast<std::size_t>(file.tellg());
  std::vector<std::uint8_t> bytes(size);
  file.seekg(0);
  if (size > 0 &&
      !file.read(reinterpret_cast<char*>(bytes.data()),
                 static_cast<std::streamsize>(size))) {
    return std::nullopt;
  }
  return bytes;
}

bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file.good()) return false;
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    file.flush();
    if (!file.good()) {
      file.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace qross::io
