#pragma once

// LRU cache of completed SolveBatches, keyed by the canonical job
// fingerprint.  Batches are stored behind shared_ptr<const ...>, so a hit
// hands out the very same immutable batch the original execution produced —
// bit-identical by construction, at zero copy cost.
//
// NOT internally synchronised: the SolveService guards it with its own
// mutex, and standalone users must do the same.  Hits and misses are
// counted by the service's registry, where admission has already decided
// whether a lookup counts; the cache counts only its own evictions.

#include <cstddef>
#include <list>
#include <memory>
#include <unordered_map>

#include "qubo/batch.hpp"
#include "service/fingerprint.hpp"

namespace qross::service {

class ResultCache {
 public:
  /// `capacity` is the maximum number of cached batches; 0 disables the
  /// cache (get always misses, put is a no-op).
  explicit ResultCache(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }
  std::size_t size() const { return lru_.size(); }

  /// Returns the cached batch and marks it most-recently-used, or nullptr.
  std::shared_ptr<const qubo::SolveBatch> get(const Fingerprint& key);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used one
  /// when full.
  void put(const Fingerprint& key,
           std::shared_ptr<const qubo::SolveBatch> batch);

  std::size_t evictions() const { return evictions_; }

  void clear();

 private:
  struct Entry {
    Fingerprint key;
    std::shared_ptr<const qubo::SolveBatch> batch;
  };

  std::size_t capacity_;
  std::size_t evictions_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Fingerprint, std::list<Entry>::iterator, FingerprintHash>
      index_;
};

}  // namespace qross::service
