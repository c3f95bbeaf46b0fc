#include "io/cache_store.hpp"

#include <cstdio>
#include <filesystem>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/snapshot.hpp"
#include "obs/trace.hpp"

namespace qross::io {

namespace {

// Entry payload: key.hi | key.lo | run_ms | batch.  Framing (size, type,
// checksum) is added by write_record.
std::vector<std::uint8_t> encode_entry(const CacheEntry& entry) {
  ByteWriter payload;
  payload.u64(entry.key.hi);
  payload.u64(entry.key.lo);
  payload.f64(entry.run_ms);
  encode_batch(payload, *entry.batch);
  ByteWriter record;
  write_record(record, kRecordCacheEntry, payload.bytes(), kFormatVersion);
  return record.take();
}

struct ScannedEntry {
  CacheEntry entry;
  std::uint64_t record_bytes = 0;  ///< framed size, for the byte budget
};

struct FileScan {
  std::vector<ScannedEntry> entries;  // oldest -> newest
  std::size_t records = 0;
  std::size_t skipped = 0;
  std::uint32_t version = 0;
  bool version_rejected = false;
  bool exists = false;
  std::uint64_t file_bytes = 0;
};

/// Best-effort scan of one snapshot/journal file.  Every failure mode
/// (missing file, foreign magic, future version, torn tail, flipped bytes)
/// lands in the stats, never in an exception.
FileScan scan_file(const std::string& path) {
  FileScan scan;
  const auto bytes = read_file(path);
  if (!bytes.has_value()) return scan;
  scan.exists = true;
  scan.file_bytes = bytes->size();
  ByteReader reader(*bytes);
  switch (read_header(reader, &scan.version)) {
    case HeaderStatus::ok:
      break;
    case HeaderStatus::bad_magic:
      ++scan.skipped;  // the whole file is unusable
      return scan;
    case HeaderStatus::future_version:
      scan.version_rejected = true;
      return scan;
  }
  const ScanStats stats = scan_records(
      reader, scan.version,
      [&](std::uint32_t type, std::span<const std::uint8_t> payload) {
        if (type != kRecordCacheEntry) return true;  // tolerated, not ours
        try {
          ByteReader in(payload);
          ScannedEntry scanned;
          scanned.entry.key.hi = in.u64();
          scanned.entry.key.lo = in.u64();
          scanned.entry.run_ms = in.f64();
          scanned.entry.batch = std::make_shared<const qubo::SolveBatch>(
              decode_batch(in));
          scanned.record_bytes = payload.size() + 16;
          scan.entries.push_back(std::move(scanned));
          return true;
        } catch (const DecodeError&) {
          return false;  // checksum matched but the payload is malformed
        }
      });
  scan.records = stats.records;
  scan.skipped = stats.skipped + (stats.truncated ? 1 : 0);
  return scan;
}

/// Newest-wins merge of snapshot + journal entries, preserving the recency
/// order (an entry re-appended later moves to the newer position).
std::vector<ScannedEntry> merge_newest_wins(FileScan&& snapshot,
                                            FileScan&& journal) {
  std::vector<ScannedEntry> merged;
  merged.reserve(snapshot.entries.size() + journal.entries.size());
  std::unordered_map<service::Fingerprint, std::size_t,
                     service::FingerprintHash>
      index;
  auto take = [&](std::vector<ScannedEntry>& entries) {
    for (auto& scanned : entries) {
      const auto it = index.find(scanned.entry.key);
      if (it != index.end()) merged[it->second].entry.batch = nullptr;
      index[scanned.entry.key] = merged.size();
      merged.push_back(std::move(scanned));
    }
  };
  take(snapshot.entries);
  take(journal.entries);
  std::erase_if(merged,
                [](const ScannedEntry& e) { return e.entry.batch == nullptr; });
  return merged;
}

}  // namespace

CacheStore::CacheStore(CacheStoreConfig config) : config_(std::move(config)) {}

std::size_t CacheStore::load(
    const std::function<void(CacheEntry entry)>& sink) {
  MutexLock lock(m_);
  FileScan snapshot = scan_file(config_.path);
  FileScan journal = scan_file(journal_path());
  load_skipped_ = snapshot.skipped + journal.skipped;
  version_rejected_ = snapshot.version_rejected || journal.version_rejected;
  std::size_t delivered = 0;
  for (const auto* scan : {&snapshot, &journal}) {
    for (const auto& scanned : scan->entries) {
      sink(scanned.entry);
      ++delivered;
    }
  }
  return delivered;
}

std::size_t CacheStore::load_skipped() const {
  MutexLock lock(m_);
  return load_skipped_;
}

bool CacheStore::version_rejected() const {
  MutexLock lock(m_);
  return version_rejected_;
}

bool CacheStore::append(const CacheEntry& entry) {
  MutexLock lock(m_);
  if (!journal_.is_open()) {
    if (!repair_journal_tail_locked()) return false;
    journal_.open(journal_path(),
                  std::ios::binary | std::ios::app);
    if (!journal_.good()) return false;
    if (journal_.tellp() == std::ofstream::pos_type(0)) {
      ByteWriter header;
      write_header(header);
      journal_.write(reinterpret_cast<const char*>(header.bytes().data()),
                     static_cast<std::streamsize>(header.size()));
    }
  }
  const auto record = encode_entry(entry);
  journal_.write(reinterpret_cast<const char*>(record.data()),
                 static_cast<std::streamsize>(record.size()));
  journal_.flush();
  if (!journal_.good()) {
    journal_.close();  // reopen (and retry the header) on the next append
    return false;
  }
  return true;
}

std::size_t CacheStore::compact() {
  MutexLock lock(m_);
  return compact_locked();
}

bool CacheStore::repair_journal_tail_locked() {
  const auto bytes = read_file(journal_path());
  if (!bytes.has_value()) return true;  // no journal yet: nothing to repair
  ByteReader reader(*bytes);
  std::uint32_t version = 0;
  switch (read_header(reader, &version)) {
    case HeaderStatus::future_version:
      // A newer build's journal: mixing our records into it could corrupt
      // data we cannot read.  Refuse to append rather than guess.
      return false;
    case HeaderStatus::bad_magic:
      // Foreign or half-written beyond recognition — unusable by any
      // reader, so start the journal over.
      journal_.close();
      std::remove(journal_path().c_str());
      return true;
    case HeaderStatus::ok:
      break;
  }
  if (version != kFormatVersion) {
    // An older format's journal: its header fixes the checksum of every
    // record in it, so ours must not follow.  Compaction folds it into a
    // current-format snapshot and removes it; the append starts afresh.
    compact_locked();
    return !std::filesystem::exists(journal_path());
  }
  // Walk the framing to the end of the last complete record.  Checksums
  // are irrelevant here: a corrupt-but-fully-framed record still keeps the
  // stream in sync, only a torn tail would swallow everything appended
  // after it (the tear becomes a bogus length field mid-stream).
  std::size_t valid_end = reader.offset();
  while (reader.remaining() >= 16) {
    const std::uint32_t size = reader.u32();
    reader.u32();  // type
    reader.u64();  // checksum
    if (size > reader.remaining()) break;
    reader.raw(size);
    valid_end = reader.offset();
  }
  if (valid_end < bytes->size()) {
    std::error_code ec;
    std::filesystem::resize_file(journal_path(), valid_end, ec);
    if (ec) {  // cannot repair in place: replace the file wholesale
      journal_.close();
      return write_file_atomic(
          journal_path(),
          std::span<const std::uint8_t>(bytes->data(), valid_end));
    }
  }
  return true;
}

std::size_t CacheStore::compact_locked() {
  // The trace recorder is leaked (never destroyed), so static-teardown-time
  // compaction stays safe.  Compactions are counted by the owning service's
  // registry, where it calls compact().
  obs::ScopedSpan span("compact", "io");
  if (journal_.is_open()) journal_.close();
  FileScan snapshot = scan_file(config_.path);
  FileScan journal = scan_file(journal_path());
  if (!snapshot.exists && !journal.exists) return 0;  // nothing to create
  auto merged =
      merge_newest_wins(std::move(snapshot), std::move(journal));
  // Eviction budget: keep the newest suffix that fits both limits.
  std::size_t first = merged.size();
  std::uint64_t bytes = 0;
  while (first > 0 && merged.size() - first < config_.max_entries &&
         bytes + merged[first - 1].record_bytes <= config_.max_bytes) {
    bytes += merged[first - 1].record_bytes;
    --first;
  }
  ByteWriter out;
  write_header(out);
  for (std::size_t k = first; k < merged.size(); ++k) {
    const auto record = encode_entry(merged[k].entry);
    out.raw(record);
  }
  if (!write_file_atomic(config_.path, out.bytes())) return 0;
  std::remove(journal_path().c_str());
  return merged.size() - first;
}

void CacheStore::clear() {
  MutexLock lock(m_);
  if (journal_.is_open()) journal_.close();
  std::remove(config_.path.c_str());
  std::remove((config_.path + ".tmp").c_str());
  std::remove(journal_path().c_str());
}

CacheStoreInfo CacheStore::info() {
  MutexLock lock(m_);
  if (journal_.is_open()) journal_.flush();
  FileScan snapshot = scan_file(config_.path);
  FileScan journal = scan_file(journal_path());
  CacheStoreInfo info;
  info.snapshot_exists = snapshot.exists;
  info.journal_exists = journal.exists;
  info.snapshot_version = snapshot.version;
  info.snapshot_records = snapshot.records;
  info.journal_records = journal.records;
  info.snapshot_bytes = snapshot.file_bytes;
  info.journal_bytes = journal.file_bytes;
  info.skipped_records = snapshot.skipped + journal.skipped;
  info.version_rejected =
      snapshot.version_rejected || journal.version_rejected;
  const auto merged =
      merge_newest_wins(std::move(snapshot), std::move(journal));
  info.live_entries = merged.size();
  for (const auto& scanned : merged) info.saved_run_ms += scanned.entry.run_ms;
  return info;
}

}  // namespace qross::io
