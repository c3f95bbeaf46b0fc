#pragma once

// Metrics registry: named counters, gauges, and fixed-bucket histograms with
// a Prometheus-style text exposition.  Each SolveService owns one, and it is
// the only store of the events it counts: ServiceMetrics, the Metrics frame,
// ServerStats and the GetProm text all read the same
// instruments, so two services in one process never see each other's counts
// and no event is tallied twice.  Registration takes a mutex and returns a
// stable pointer; the instruments themselves are updated with atomics only,
// so hot paths (per-sweep ticks, per-frame counters) never contend on the
// registry lock.
//
// Naming follows Prometheus conventions: snake_case, `_total` suffix on
// counters, the unit in the name (`_ms`).  Names are unique across kinds —
// registering an existing name with a different kind (or a histogram with
// different buckets) throws.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace qross::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value that can go up and down.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with cumulative Prometheus semantics: bucket i
/// counts observations <= bounds[i], plus an implicit +Inf bucket.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; the last entry is the +Inf bucket,
  /// so the vector has bounds().size() + 1 entries.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Estimated q-quantile (q in [0, 1]) from the buckets, the way
  /// Prometheus' histogram_quantile computes it: find the bucket holding
  /// rank q * count and interpolate linearly between its bounds (the first
  /// bucket starts at 0).  A rank in the +Inf bucket reports the highest
  /// finite bound.  0 when nothing was observed.
  double quantile(double q) const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class Registry {
 public:
  /// Registers (or fetches) an instrument.  Pointers stay valid for the
  /// registry's lifetime.  `help` is recorded on first registration.
  Counter* counter(const std::string& name, const std::string& help = "")
      EXCLUDES(m_);
  Gauge* gauge(const std::string& name, const std::string& help = "")
      EXCLUDES(m_);
  Histogram* histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "") EXCLUDES(m_);

  /// Prometheus text exposition: `# HELP` / `# TYPE` lines, cumulative
  /// histogram `_bucket{le=...}` series ending in `le="+Inf"`, `_sum`,
  /// `_count`.  Metric families sorted by name.
  std::string render_prometheus() const EXCLUDES(m_);

 private:
  enum class Kind { counter, gauge, histogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_locked(const std::string& name, Kind kind,
                      const std::string& help) REQUIRES(m_);

  mutable Mutex m_;
  /// Sorted → stable exposition order.  The map is guarded; the instruments
  /// it owns are atomics-only and updated lock-free through stable pointers.
  std::map<std::string, Entry> entries_ GUARDED_BY(m_);
};

}  // namespace qross::obs
