#include "service/result_cache.hpp"

#include "common/assert.hpp"

namespace qross::service {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const qubo::SolveBatch> ResultCache::get(
    const Fingerprint& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
  return it->second->batch;
}

void ResultCache::put(const Fingerprint& key,
                      std::shared_ptr<const qubo::SolveBatch> batch) {
  if (capacity_ == 0) return;
  QROSS_ASSERT(batch != nullptr);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->batch = std::move(batch);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front({key, std::move(batch)});
  index_[key] = lru_.begin();
}

void ResultCache::clear() {
  lru_.clear();
  index_.clear();
}

}  // namespace qross::service
