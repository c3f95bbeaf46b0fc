#pragma once

// Persistent result-cache store: an append-only journal plus a compacted
// snapshot, both in the io/snapshot record format, keyed by the service's
// canonical 128-bit job fingerprint.
//
// Why two files: completed results are journaled one record at a time
// (process-crash-safe — a torn tail loses at most the last record; writes
// are flushed to the OS but deliberately NOT fsynced, so power-loss/kernel
// -crash durability is out of scope: every entry is reproducible by
// re-solving, the cache is an optimisation), while the
// snapshot is only ever rewritten atomically by compact(), which merges
// snapshot + journal newest-wins, applies the eviction budget, and removes
// the journal.  load() reads snapshot then journal oldest-to-newest, so a
// warm-filled LRU cache ends up with the newest entries most recent.
//
// Robustness contract (the cross-run warm-start guarantee depends on it):
// corrupt, truncated, foreign, or future-version files degrade to an empty
// load — NEVER an exception.  skipped()/version_rejected() report what was
// dropped so callers can surface it in metrics.
//
// All public methods are internally synchronised; one CacheStore may be
// shared by a serving SolveService and a concurrent explicit flush.
// Concurrent access to one path from multiple *processes* is not
// coordinated — the last compaction wins.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "common/thread_annotations.hpp"
#include "qubo/batch.hpp"
#include "service/fingerprint.hpp"

namespace qross::io {

struct CacheStoreConfig {
  /// Snapshot path; the journal lives beside it at `path + ".journal"`.
  std::string path;
  /// Compaction eviction budget: at most this many entries are kept
  /// (newest first).  0 keeps none — compact() then empties the store.
  std::size_t max_entries = 4096;
  /// Compaction eviction budget on total encoded record bytes.
  std::uint64_t max_bytes = 64ull * 1024 * 1024;
};

/// One persisted cache entry: the job key, the batch, and the solve
/// metadata worth keeping across runs (what the entry cost to produce).
struct CacheEntry {
  service::Fingerprint key;
  double run_ms = 0.0;  ///< kernel milliseconds the original execution took
  std::shared_ptr<const qubo::SolveBatch> batch;
};

struct CacheStoreInfo {
  bool snapshot_exists = false;
  bool journal_exists = false;
  std::uint32_t snapshot_version = 0;  ///< 0 when absent/foreign
  std::size_t snapshot_records = 0;
  std::size_t journal_records = 0;
  std::size_t live_entries = 0;  ///< distinct keys after newest-wins merge
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t journal_bytes = 0;
  std::size_t skipped_records = 0;
  bool version_rejected = false;
  /// Total kernel milliseconds the live entries represent — the solver
  /// time a fully warm start avoids re-paying.
  double saved_run_ms = 0.0;
};

class CacheStore {
 public:
  explicit CacheStore(CacheStoreConfig config);

  const CacheStoreConfig& config() const { return config_; }
  std::string journal_path() const { return config_.path + ".journal"; }

  /// Reads snapshot then journal, delivering every decodable entry
  /// oldest-to-newest (duplicate keys are delivered in order; an LRU
  /// `put` naturally keeps the newest).  Returns the number delivered.
  /// Corrupt input is skipped, never thrown.
  std::size_t load(const std::function<void(CacheEntry entry)>& sink)
      EXCLUDES(m_);

  /// Records skipped by the most recent load() — corrupt, truncated, or
  /// undecodable.
  std::size_t load_skipped() const EXCLUDES(m_);
  /// True when the most recent load() refused a future-version snapshot.
  bool version_rejected() const EXCLUDES(m_);

  /// Appends one entry to the journal and flushes it to the OS.  The first
  /// append repairs a torn journal tail (crash recovery) so the new record
  /// stays framed, and compacts an older format's journal into the snapshot
  /// first, so no file mixes record formats.  Returns false on I/O failure
  /// or a future-version journal (the entry is then simply not persisted).
  bool append(const CacheEntry& entry) EXCLUDES(m_);

  /// Merges snapshot + journal (newest record per key wins), applies the
  /// eviction budget (newest entries kept), atomically rewrites the
  /// snapshot, and removes the journal.  Returns the entry count kept.
  std::size_t compact() EXCLUDES(m_);

  /// Removes snapshot, journal, and any leftover temp file.
  void clear() EXCLUDES(m_);

  /// Scans both files and reports their state; read-only.
  CacheStoreInfo info() EXCLUDES(m_);

 private:
  std::size_t compact_locked() REQUIRES(m_);
  /// Truncates a torn tail off the journal before the first append of this
  /// store's lifetime, so post-crash appends stay framed (a record written
  /// after a torn tail would otherwise be unreadable and silently dropped
  /// by the next compaction); an older format's journal is compacted away
  /// instead.  False = the journal must not be appended to (written by a
  /// newer format version, or an older one that compaction could not
  /// remove).
  bool repair_journal_tail_locked() REQUIRES(m_);

  mutable Mutex m_;
  CacheStoreConfig config_;  ///< immutable after construction
  /// Opened lazily by append(), closed by compact().
  std::ofstream journal_ GUARDED_BY(m_);
  std::size_t load_skipped_ GUARDED_BY(m_) = 0;
  bool version_rejected_ GUARDED_BY(m_) = false;
};

}  // namespace qross::io
