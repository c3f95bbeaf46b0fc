#include "obs/registry.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace qross::obs {

namespace {

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_count(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_le(std::string& out, double bound) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", bound);
  out += buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  QROSS_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  QROSS_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "histogram bounds must be strictly ascending");
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (
      !sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  std::uint64_t below = 0;  // observations in the buckets before i
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (counts[i] > 0 && static_cast<double>(below + counts[i]) >= rank) {
      const double lower = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
      const double within = (rank - static_cast<double>(below)) /
                            static_cast<double>(counts[i]);
      return lower + (bounds_[i] - lower) * within;
    }
    below += counts[i];
  }
  return bounds_.back();
}

Registry::Entry& Registry::entry_locked(const std::string& name, Kind kind,
                                        const std::string& help) {
  QROSS_REQUIRE(!name.empty(), "metric name must be non-empty");
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    QROSS_REQUIRE(it->second.kind == kind,
                  "metric registered twice with different kinds");
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = help;
  return entries_.emplace(name, std::move(entry)).first->second;
}

Counter* Registry::counter(const std::string& name, const std::string& help) {
  MutexLock lock(m_);
  Entry& e = entry_locked(name, Kind::counter, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return e.counter.get();
}

Gauge* Registry::gauge(const std::string& name, const std::string& help) {
  MutexLock lock(m_);
  Entry& e = entry_locked(name, Kind::gauge, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return e.gauge.get();
}

Histogram* Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const std::string& help) {
  MutexLock lock(m_);
  // Validate the bounds BEFORE touching the map: a throwing constructor must
  // not leave a half-registered entry behind for render_prometheus to trip on.
  auto built = std::make_unique<Histogram>(bounds);
  Entry& e = entry_locked(name, Kind::histogram, help);
  if (!e.histogram) {
    e.histogram = std::move(built);
  } else {
    QROSS_REQUIRE(e.histogram->bounds() == bounds,
                  "histogram re-registered with different buckets");
  }
  return e.histogram.get();
}

std::string Registry::render_prometheus() const {
  MutexLock lock(m_);
  std::string out;
  out.reserve(entries_.size() * 128);
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) {
      out += "# HELP " + name + " " + e.help + "\n";
    }
    switch (e.kind) {
      case Kind::counter:
        out += "# TYPE " + name + " counter\n" + name + " ";
        append_count(out, e.counter->value());
        out += '\n';
        break;
      case Kind::gauge:
        out += "# TYPE " + name + " gauge\n" + name + " ";
        append_number(out, e.gauge->value());
        out += '\n';
        break;
      case Kind::histogram: {
        out += "# TYPE " + name + " histogram\n";
        const auto& bounds = e.histogram->bounds();
        const auto counts = e.histogram->bucket_counts();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < bounds.size(); ++i) {
          cumulative += counts[i];
          out += name + "_bucket{le=\"";
          append_le(out, bounds[i]);
          out += "\"} ";
          append_count(out, cumulative);
          out += '\n';
        }
        cumulative += counts.back();
        out += name + "_bucket{le=\"+Inf\"} ";
        append_count(out, cumulative);
        out += '\n';
        out += name + "_sum ";
        append_number(out, e.histogram->sum());
        out += '\n';
        out += name + "_count ";
        append_count(out, e.histogram->count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace qross::obs
