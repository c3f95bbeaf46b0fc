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
// QuboModel stores a dense n x n double matrix, so the variable count IS an
// allocation commitment (n = 8192 already means 512 MiB).  Anything above
// this is corruption or abuse — a remote SubmitJob frame must not be able
// to trigger a multi-gigabyte allocation with a 40-byte payload.
constexpr std::uint32_t kMaxModelVars = 1u << 13;

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

void write_record(ByteWriter& out, std::uint32_t type,
                  std::span<const std::uint8_t> payload) {
  out.reserve(kRecordHeaderBytes + payload.size());
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(type);
  out.u64(checksum64(payload));
  out.raw(payload);
}

ScanStats scan_records(
    ByteReader& in,
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
    if (checksum64(payload) != expected || !sink(type, payload)) {
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
  // Canonical order: row-major over the upper triangle, structural nonzeros
  // only — the same walk fingerprint_model takes, so equal fingerprints
  // imply equal encodings.
  for (std::size_t i = 0; i < model.num_vars(); ++i) {
    for (std::size_t j = i; j < model.num_vars(); ++j) {
      const double w = model.coefficient(i, j);
      if (w == 0.0) continue;
      out.u32(static_cast<std::uint32_t>(i));
      out.u32(static_cast<std::uint32_t>(j));
      out.f64(w);
    }
  }
}

qubo::QuboModel decode_model(ByteReader& in) {
  const std::uint32_t num_vars = in.u32();
  if (num_vars > kMaxModelVars) {
    throw DecodeError("implausible model size: " + std::to_string(num_vars));
  }
  qubo::QuboModel model(num_vars);
  model.set_offset(in.f64());
  const std::uint32_t nnz = in.u32();
  // A dense model has at most n(n+1)/2 structural nonzeros; a count beyond
  // that is corruption, and catching it here stops an allocation bomb.
  const std::uint64_t max_nnz =
      static_cast<std::uint64_t>(num_vars) * (num_vars + 1) / 2;
  if (nnz > max_nnz) {
    throw DecodeError("implausible nonzero count: " + std::to_string(nnz));
  }
  for (std::uint32_t k = 0; k < nnz; ++k) {
    const std::uint32_t i = in.u32();
    const std::uint32_t j = in.u32();
    if (i >= num_vars || j >= num_vars || j < i) {
      throw DecodeError("model term index out of range");
    }
    model.add_term(i, j, in.f64());
  }
  return model;
}

}  // namespace qross::io
