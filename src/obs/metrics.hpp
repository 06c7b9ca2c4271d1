// Protocol telemetry: counters, gauges, log-bucketed histograms, and a
// thread-safe Registry of labeled metric families.
//
// Design constraints (ROADMAP: "fast as the hardware allows"):
//   * metric updates are lock-free (relaxed atomics) — the Registry mutex is
//     only taken on first lookup of a (name, labels) pair and on export;
//   * instrumented code holds plain pointers, so the disabled path is a
//     single null check (`if (reg) ...`).
//
// Metric addresses returned by the Registry are stable for its lifetime, so
// hot loops can resolve a family once and update it without further lookups.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace graphene::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (doubles, to hold rates and sizes).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram over non-negative 64-bit samples — one bucket per
/// power of two, which is the right resolution for both byte sizes and
/// nanosecond timings (bucket i holds samples in [2^(i-1), 2^i), bucket 0
/// holds zero). Updates are relaxed atomics; snapshots are approximate under
/// concurrency but each individual sample is never lost.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t min() const noexcept;  ///< 0 when empty
  [[nodiscard]] std::uint64_t max() const noexcept;  ///< 0 when empty
  [[nodiscard]] double mean() const noexcept;

  /// Approximate quantile (q in [0, 1]) from the bucket counts; exact for
  /// values that fall on bucket boundaries, otherwise the bucket's upper
  /// bound — an over-estimate by at most 2x, which log-bucketing accepts.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (0, 1, 3, 7, 15, ...).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) noexcept;
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Label set attached to a metric family instance, e.g. {{"msg", "grblk"},
/// {"dir", "s2r"}}. Order-insensitive: the Registry canonicalizes by key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Thread-safe home for all metrics of one observed scope (typically one
/// simulation run, one node, or one process). Lookup interns the
/// (name, labels) pair under a mutex; returned references stay valid and
/// lock-free for the Registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name, const Labels& labels = {})
      EXCLUDES(mu_);
  [[nodiscard]] Gauge& gauge(std::string_view name, const Labels& labels = {})
      EXCLUDES(mu_);
  [[nodiscard]] Histogram& histogram(std::string_view name, const Labels& labels = {})
      EXCLUDES(mu_);

  /// Looks up an existing metric without creating it; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(std::string_view name,
                                            const Labels& labels = {}) const
      EXCLUDES(mu_);
  [[nodiscard]] const Histogram* find_histogram(std::string_view name,
                                                const Labels& labels = {}) const
      EXCLUDES(mu_);

  /// Structured per-stage event log for this scope (spans are recorded by
  /// the protocol engines through ScopedSpan).
  [[nodiscard]] TraceSink& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceSink& trace() const noexcept { return trace_; }

  /// Protocol flight recorder for this scope (events are recorded by the
  /// Graphene sender/receiver and reconcile engines; see flight_recorder.hpp).
  [[nodiscard]] FlightRecorder& recorder() noexcept { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const noexcept { return recorder_; }

  /// Full snapshot as one JSON object:
  ///   {"counters": [{"name", "labels", "value"}, ...],
  ///    "gauges":   [...],
  ///    "histograms": [{"name", "labels", "count", "sum", "min", "max",
  ///                    "mean", "p50", "p95", "p99",
  ///                    "buckets": [{"le", "count"}, ...]}, ...]}
  /// Zero-count histogram buckets are elided.
  [[nodiscard]] std::string to_json() const EXCLUDES(mu_);

  /// Prometheus text exposition format (version 0.0.4): counters and gauges
  /// as single samples, histograms as cumulative `_bucket{le=...}` series
  /// plus `_sum`/`_count`. Quantile summaries stay in to_json — Prometheus
  /// computes quantiles server-side from the buckets.
  [[nodiscard]] std::string to_prometheus() const EXCLUDES(mu_);

 private:
  struct Key {
    std::string name;
    Labels labels;  // sorted by key
    bool operator<(const Key& o) const {
      return name != o.name ? name < o.name : labels < o.labels;
    }
  };
  static Key make_key(std::string_view name, Labels labels);

  mutable util::Mutex mu_;
  // The map values are stable heap cells: references handed out by
  // counter()/gauge()/histogram() stay valid and lock-free (the cells'
  // atomics are their own synchronization), so only the maps are guarded.
  std::map<Key, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<Key, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
  TraceSink trace_;
  FlightRecorder recorder_;
};

}  // namespace graphene::obs
