// Thread-safe memoization of param_table lookups.
//
// lookup_params is a linear scan over the shipped grid, and the b search in
// core::GrapheneHost::serve plus the ternary searches in
// core::optimize_protocol1/2 evaluate it hundreds of times per block with
// heavy key reuse. A shared ParamCache turns those into one
// shared_mutex-guarded hash probe; keys are canonicalized with
// snap_fail_denom so every spelling of the same (j, rate) shares one entry.
//
// Concurrency: readers take a shared lock, writers an exclusive one. A miss
// computes lookup_params OUTSIDE the lock (it is pure), so concurrent misses
// on the same key may both compute — both arrive at the same value, and the
// second insert is a no-op. Hit/miss counters are relaxed atomics; they feed
// telemetry, not control flow.
//
// Intended shape: one cache per process, reached through
// core::ProtocolConfig::param_cache (not owned). A null cache pointer is
// always legal — the cached_* free helpers fall back to direct lookups.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>

#include "iblt/iblt.hpp"
#include "iblt/param_table.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace graphene::obs {
class Registry;
}  // namespace graphene::obs

namespace graphene::iblt {

class ParamCache {
 public:
  ParamCache() = default;

  ParamCache(const ParamCache&) = delete;
  ParamCache& operator=(const ParamCache&) = delete;

  /// Cached equivalent of lookup_params(j, fail_denom).
  [[nodiscard]] IbltParams params(std::uint64_t j, std::uint32_t fail_denom = 240);

  /// Cached equivalent of iblt_bytes(j, fail_denom). Derives the size from
  /// the cached IbltParams, so both queries share one entry per key.
  [[nodiscard]] std::size_t bytes(std::uint64_t j, std::uint32_t fail_denom = 240);

  /// Telemetry. Counters are monotonically increasing and approximate under
  /// concurrency (relaxed); entries() takes a shared lock.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t entries() const EXCLUDES(mu_);

  /// Publishes the hit/miss/entry counts as gauges in `reg`
  /// (graphene_param_cache_{hits,misses,entries}). No-op on null.
  void export_stats(obs::Registry* reg) const;

 private:
  static std::uint64_t key(std::uint64_t j, std::uint32_t fail_denom) noexcept;

  mutable util::SharedMutex mu_;
  std::unordered_map<std::uint64_t, IbltParams> map_ GUARDED_BY(mu_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// lookup_params through `cache` when one is provided, direct otherwise.
[[nodiscard]] IbltParams cached_params(ParamCache* cache, std::uint64_t j,
                                       std::uint32_t fail_denom = 240);

/// iblt_bytes through `cache` when one is provided, direct otherwise.
[[nodiscard]] std::size_t cached_iblt_bytes(ParamCache* cache, std::uint64_t j,
                                            std::uint32_t fail_denom = 240);

}  // namespace graphene::iblt
