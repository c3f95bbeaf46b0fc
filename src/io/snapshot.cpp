#include "io/snapshot.hpp"

namespace qross::io {

namespace {

// Framing overhead per record: u32 size + u32 type + u64 checksum.
constexpr std::size_t kRecordHeaderBytes = 16;
// A length field beyond this is corruption, not a real record: scanning
// past it would misinterpret gigabytes of garbage as one payload.
constexpr std::uint32_t kMaxPayloadBytes = 1u << 28;  // 256 MiB
// Decoder sanity bounds — far above any real batch, low enough that a
// corrupt count cannot drive an allocation bomb before the checksum-passed
// payload runs out of bytes.
constexpr std::uint32_t kMaxResults = 1u << 24;
constexpr std::uint32_t kMaxBitsPerResult = 1u << 26;
// A decoded model is O(n + nnz), but its variable count is outside input
// that commits the receiver to n^2 work: SubmitTune's instance unpacks into
// an 8·n^2-byte distance matrix (unpack_tsp_instance) and n^2 TSP variables
// (build_tsp_problem).  A count above this cap is corruption or abuse.
constexpr std::uint32_t kMaxModelVars = 1u << 13;
// Below that cap the 8·n^2 bytes may be at most kDenseBytesPerPayloadByte
// per byte of the model's encoding (16 header bytes plus 16 per term),
// except that a model of up to kFreeModelVars variables (8 MiB) decodes
// whatever its term count.  A 16-byte payload claiming 8192 variables is
// refused unallocated; a sparse 8192-variable model needs 32k terms.
constexpr std::uint64_t kModelHeaderBytes = 16;
constexpr std::uint64_t kModelTermBytes = 16;
constexpr std::uint64_t kFreeModelVars = 1024;
constexpr std::uint64_t kDenseBytesPerPayloadByte = 1024;

}  // namespace

void write_header(ByteWriter& out) {
  out.raw(kSnapshotMagic);
  out.u32(kFormatVersion);
  out.u32(0);  // flags, reserved
}

HeaderStatus read_header(ByteReader& in, std::uint32_t* version) {
  if (version != nullptr) *version = 0;
  if (in.remaining() < kSnapshotMagic.size() + 8) return HeaderStatus::bad_magic;
  const auto magic = in.raw(kSnapshotMagic.size());
  for (std::size_t i = 0; i < kSnapshotMagic.size(); ++i) {
    if (magic[i] != kSnapshotMagic[i]) return HeaderStatus::bad_magic;
  }
  const std::uint32_t file_version = in.u32();
  in.u32();  // flags, reserved
  if (version != nullptr) *version = file_version;
  if (file_version > kFormatVersion) return HeaderStatus::future_version;
  return HeaderStatus::ok;
}

std::uint64_t record_checksum(std::uint32_t version,
                              std::span<const std::uint8_t> payload) {
  return version >= 2 ? checksum64_v2(payload) : checksum64(payload);
}

void write_record(ByteWriter& out, std::uint32_t type,
                  std::span<const std::uint8_t> payload,
                  std::uint32_t version) {
  out.reserve(kRecordHeaderBytes + payload.size());
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(type);
  out.u64(record_checksum(version, payload));
  out.raw(payload);
}

ScanStats scan_records(
    ByteReader& in, std::uint32_t version,
    const std::function<bool(std::uint32_t type,
                             std::span<const std::uint8_t> payload)>& sink) {
  ScanStats stats;
  while (in.remaining() > 0) {
    if (in.remaining() < kRecordHeaderBytes) {
      stats.truncated = true;  // partial record header at the tail
      break;
    }
    const std::uint32_t size = in.u32();
    const std::uint32_t type = in.u32();
    const std::uint64_t expected = in.u64();
    if (size > kMaxPayloadBytes || size > in.remaining()) {
      // Either the tail of an interrupted append or a corrupt length field;
      // both make everything after this point unframeable.
      stats.truncated = true;
      break;
    }
    const auto payload = in.raw(size);
    if (record_checksum(version, payload) != expected ||
        !sink(type, payload)) {
      ++stats.skipped;
      continue;
    }
    ++stats.records;
  }
  return stats;
}

void encode_batch(ByteWriter& out, const qubo::SolveBatch& batch) {
  std::size_t size = 4;
  for (const auto& result : batch.results) {
    size += 8 + 4 + (result.assignment.size() + 7) / 8;
  }
  out.reserve(size);
  out.u32(static_cast<std::uint32_t>(batch.results.size()));
  for (const auto& result : batch.results) {
    out.f64(result.qubo_energy);
    const auto& bits = result.assignment;
    out.u32(static_cast<std::uint32_t>(bits.size()));
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      byte |= static_cast<std::uint8_t>((bits[i] & 1u) << (i & 7));
      if ((i & 7) == 7) {
        out.u8(byte);
        byte = 0;
      }
    }
    if ((bits.size() & 7) != 0) out.u8(byte);
  }
}

qubo::SolveBatch decode_batch(ByteReader& in) {
  qubo::SolveBatch batch;
  const std::uint32_t num_results = in.u32();
  if (num_results > kMaxResults) {
    throw DecodeError("implausible result count: " +
                      std::to_string(num_results));
  }
  batch.results.reserve(num_results);
  for (std::uint32_t k = 0; k < num_results; ++k) {
    qubo::SolveResult result;
    result.qubo_energy = in.f64();
    const std::uint32_t num_bits = in.u32();
    if (num_bits > kMaxBitsPerResult) {
      throw DecodeError("implausible assignment length: " +
                        std::to_string(num_bits));
    }
    const auto packed = in.raw((num_bits + 7) / 8);
    result.assignment.resize(num_bits);
    for (std::uint32_t i = 0; i < num_bits; ++i) {
      result.assignment[i] = (packed[i >> 3] >> (i & 7)) & 1u;
    }
    batch.results.push_back(std::move(result));
  }
  return batch;
}

void encode_model(ByteWriter& out, const qubo::QuboModel& model) {
  out.reserve(4 + 8 + 4 + model.num_nonzeros() * (4 + 4 + 8));
  out.u32(static_cast<std::uint32_t>(model.num_vars()));
  out.f64(model.offset());
  out.u32(static_cast<std::uint32_t>(model.num_nonzeros()));
  // QuboModel::for_each_term order, the walk fingerprint_model takes too,
  // so equal fingerprints imply equal encodings.
  model.for_each_term([&](std::size_t i, std::size_t j, double w) {
    out.u32(static_cast<std::uint32_t>(i));
    out.u32(static_cast<std::uint32_t>(j));
    out.f64(w);
  });
}

qubo::QuboModel decode_model(ByteReader& in) {
  const std::uint32_t num_vars = in.u32();
  if (num_vars > kMaxModelVars) {
    throw DecodeError("implausible model size: " + std::to_string(num_vars));
  }
  const double offset = in.f64();
  const std::uint32_t nnz = in.u32();
  // encode_model writes at most one term per upper-triangular key; a count
  // beyond that is corruption, and catching it here stops an allocation bomb.
  const std::uint64_t max_nnz =
      static_cast<std::uint64_t>(num_vars) * (num_vars + 1) / 2;
  if (nnz > max_nnz) {
    throw DecodeError("implausible nonzero count: " + std::to_string(nnz));
  }
  if (in.remaining() / kModelTermBytes < nnz) {
    throw DecodeError("truncated model: " + std::to_string(nnz) +
                      " terms need " + std::to_string(nnz * kModelTermBytes) +
                      " bytes, have " + std::to_string(in.remaining()));
  }
  const std::uint64_t dense_bytes =
      sizeof(double) * static_cast<std::uint64_t>(num_vars) * num_vars;
  const std::uint64_t payload_bytes = kModelHeaderBytes + kModelTermBytes * nnz;
  if (num_vars > kFreeModelVars &&
      dense_bytes > kDenseBytesPerPayloadByte * payload_bytes) {
    throw DecodeError("model of " + std::to_string(num_vars) +
                      " variables is too large for its " +
                      std::to_string(nnz) + " terms");
  }
  // Check and count the terms of each row first, so that the rows are sized
  // once and the add_term pass over encode_model's order never regrows one.
  ByteReader scan = in;
  std::vector<std::size_t> row_keys(num_vars, 0);
  for (std::uint32_t k = 0; k < nnz; ++k) {
    const std::uint32_t i = scan.u32();
    const std::uint32_t j = scan.u32();
    scan.f64();
    if (i >= num_vars || j >= num_vars || j < i) {
      throw DecodeError("model term index out of range");
    }
    ++row_keys[i];
  }
  qubo::QuboModel model(num_vars);
  for (std::uint32_t i = 0; i < num_vars; ++i) {
    model.reserve_row(i, row_keys[i]);
  }
  for (std::uint32_t k = 0; k < nnz; ++k) {
    const std::uint32_t i = in.u32();
    const std::uint32_t j = in.u32();
    model.add_term(i, j, in.f64());
  }
  model.set_offset(offset);
  return model;
}

}  // namespace qross::io
