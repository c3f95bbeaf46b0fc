#include "service/metrics.hpp"

#include <algorithm>

namespace qross::service {

SlidingWindowRate::SlidingWindowRate(Clock::time_point origin,
                                     std::size_t window_seconds)
    : origin_(origin), buckets_(std::max<std::size_t>(1, window_seconds), 0) {}

std::int64_t SlidingWindowRate::seconds_since_origin(
    Clock::time_point now) const {
  if (now <= origin_) return 0;
  return std::chrono::duration_cast<std::chrono::seconds>(now - origin_)
      .count();
}

void SlidingWindowRate::advance(Clock::time_point now) {
  const std::int64_t sec = seconds_since_origin(now);
  if (sec <= current_sec_) return;  // steady_clock never goes backwards
  const std::int64_t window = static_cast<std::int64_t>(buckets_.size());
  if (sec - current_sec_ >= window) {
    std::fill(buckets_.begin(), buckets_.end(), 0);
  } else {
    for (std::int64_t s = current_sec_ + 1; s <= sec; ++s) {
      buckets_[static_cast<std::size_t>(s % window)] = 0;
    }
  }
  current_sec_ = sec;
}

void SlidingWindowRate::record(Clock::time_point now) {
  advance(now);
  ++buckets_[static_cast<std::size_t>(current_sec_ %
                                      static_cast<std::int64_t>(
                                          buckets_.size()))];
}

double SlidingWindowRate::rate(Clock::time_point now) {
  advance(now);
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets_) total += b;
  const double elapsed =
      std::chrono::duration<double>(now - origin_).count();
  const double denom = std::clamp(elapsed, 1.0,
                                  static_cast<double>(buckets_.size()));
  return static_cast<double>(total) / denom;
}

}  // namespace qross::service
