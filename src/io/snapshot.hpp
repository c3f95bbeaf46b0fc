#pragma once

// Versioned, checksummed record framing for QROSS binary snapshots, plus
// the qubo::SolveBatch codec.
//
// File layout (all integers little-endian, see io/binary.hpp):
//
//   header   8 B magic "QROSSNAP", u32 format version, u32 flags (reserved)
//   record*  u32 payload size | u32 record type
//            | u64 record_checksum(version, payload) | payload bytes
//
// The format version is the compatibility contract: a reader rejects files
// from a NEWER version outright (it cannot know what changed) but must keep
// reading every older version it ever shipped.  Record types it does not
// recognise are skipped, so old readers tolerate new record kinds within a
// version.  Format 2 changed only the checksum (checksum64_v2, word at a
// time); format 1 files (checksum64, byte at a time) are still read, and
// only format 2 is written.  A file's header decides the checksum of every
// record in it, so no file mixes the two.  This framing is deliberately
// transport-shaped — the network front end reuses it as its wire encoding,
// where the handshake decides the version instead of a header.
//
// Corruption tolerance (scan_records): a truncated tail stops the scan
// cleanly; a record whose checksum does not match its payload is skipped
// and the scan resumes at the next frame boundary.  Nothing in this header
// throws on bad input except the raw batch decoder, whose DecodeError the
// scanner's callers are expected to catch (CacheStore does).

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "io/binary.hpp"
#include "qubo/batch.hpp"

namespace qross::io {

inline constexpr std::array<std::uint8_t, 8> kSnapshotMagic = {
    'Q', 'R', 'O', 'S', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kFormatVersion = 2;

/// Record types.  Values are part of the format: never renumber, only add.
/// Types 1..15 are snapshot records; 16+ are network protocol frames
/// (src/net/ reuses this framing verbatim as its wire encoding, so one
/// scanner/codec layer serves both files and sockets).
enum RecordType : std::uint32_t {
  kRecordCacheEntry = 1,  ///< fingerprint + solve metadata + SolveBatch

  kRecordNetHello = 16,       ///< client → server: protocol version offer
  kRecordNetHelloAck = 17,    ///< server → client: accepted version + limits
  kRecordNetError = 18,       ///< server → client: request or stream error
  kRecordNetSubmitJob = 19,   ///< client → server: solver + model + options
  kRecordNetJobStatus = 20,   ///< server → client: streamed status update
  kRecordNetCancelJob = 21,   ///< client → server: cancel a submitted tag
  kRecordNetResult = 22,      ///< server → client: terminal result + batch
  kRecordNetGetMetrics = 23,  ///< client → server: metrics request
  kRecordNetMetrics = 24,     ///< server → client: service + server counters
  kRecordNetGetTrace = 25,    ///< client → server: trace snapshot request
  kRecordNetTraceDump = 26,   ///< server → client: Chrome trace-event JSON
  kRecordNetGetProm = 27,     ///< client → server: Prometheus text request
  kRecordNetPromText = 28,    ///< server → client: Prometheus exposition
  kRecordNetSubmitTune = 29,  ///< client → server: tuner session request
  kRecordNetTuneStatus = 30,  ///< server → client: streamed per-trial progress
  kRecordNetCancelTune = 31,  ///< client → server: cancel a tune session
  kRecordNetTuneResult = 32,  ///< server → client: terminal session outcome
};

enum class HeaderStatus {
  ok,
  bad_magic,       ///< not a QROSS snapshot (foreign or garbage file)
  future_version,  ///< written by a newer build; refused, not guessed at
};

/// Writes the header of a kFormatVersion file.
void write_header(ByteWriter& out);

/// Parses and validates the header, advancing `in` past it on success.
/// `version` (optional) receives the file's version even when rejected as
/// future, so diagnostics can name it.
HeaderStatus read_header(ByteReader& in, std::uint32_t* version = nullptr);

/// The record checksum of format (or wire protocol) `version`, which both
/// number alike: checksum64 for version 1, checksum64_v2 from version 2 on.
std::uint64_t record_checksum(std::uint32_t version,
                              std::span<const std::uint8_t> payload);

/// Frames `payload` as one record (size, type, checksum, bytes), with the
/// checksum of `version`.
void write_record(ByteWriter& out, std::uint32_t type,
                  std::span<const std::uint8_t> payload,
                  std::uint32_t version);

struct ScanStats {
  std::size_t records = 0;  ///< records delivered to the sink
  std::size_t skipped = 0;  ///< checksum mismatches + sink rejections
  bool truncated = false;   ///< the file ended inside a record
};

/// Walks the records after the header (the caller consumes the header via
/// read_header first, which names the `version` whose checksum every record
/// carries).  For each well-framed record whose checksum matches,
/// calls sink(type, payload); a sink returning false counts the record as
/// skipped (e.g. its inner payload failed to decode).  Never throws on
/// malformed framing: a bad checksum skips one record, an impossible or
/// truncated length ends the scan with `truncated = true`.
ScanStats scan_records(
    ByteReader& in, std::uint32_t version,
    const std::function<bool(std::uint32_t type,
                             std::span<const std::uint8_t> payload)>& sink);

/// SolveBatch codec.  Assignments are packed 8 bits per byte (LSB first);
/// energies travel as raw IEEE-754 bit patterns, so decode(encode(b)) is
/// bit-identical for canonical 0/1 assignments — the only kind solvers
/// produce (is_valid_assignment).
void encode_batch(ByteWriter& out, const qubo::SolveBatch& batch);

/// Throws DecodeError on malformed input (callers catch; see header note).
qubo::SolveBatch decode_batch(ByteReader& in);

/// QuboModel codec: num_vars, offset, nnz, then the model's nonzero
/// coefficients as (i, j, IEEE-754 bits) triples in QuboModel::for_each_term
/// order (row-major over the upper triangle).  The encoding is canonical —
/// two models built along different term-insertion paths to the same
/// coefficients encode byte-identically — so it is safe to fingerprint or
/// transport.  Used by the network front end's SubmitJob
/// frame.
void encode_model(ByteWriter& out, const qubo::QuboModel& model);

/// Throws DecodeError on malformed input (truncated triples, out-of-range
/// indices, or an implausible variable count) before allocating the model:
/// the n^2 work a variable count commits a receiver to is bounded by the
/// payload's size (see snapshot.cpp).  Terms may arrive unsorted or
/// repeated; they accumulate like QuboModel::add_term.
qubo::QuboModel decode_model(ByteReader& in);

}  // namespace qross::io
