#include "iblt/param_cache.hpp"

#include <iterator>

#include "obs/metrics.hpp"

namespace graphene::iblt {

std::uint64_t ParamCache::key(std::uint64_t j, std::uint32_t fail_denom) noexcept {
  // Canonical key: j in the high bits, the index of the snapped denominator
  // in the low two. Collision-free by construction (j < 2^62 in practice).
  const std::uint32_t denom = snap_fail_denom(fail_denom);
  std::uint64_t denom_index = 0;
  for (std::size_t i = 0; i < std::size(kFailDenoms); ++i) {
    if (kFailDenoms[i] == denom) denom_index = i;
  }
  return (j << 2) | denom_index;
}

IbltParams ParamCache::params(std::uint64_t j, std::uint32_t fail_denom) {
  const std::uint64_t k = key(j, fail_denom);
  {
    const util::ReaderLock lock(mu_);
    const auto it = map_.find(k);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Compute outside the lock: lookup_params is pure, so a racing miss on the
  // same key just recomputes the identical value.
  const IbltParams p = lookup_params(j, fail_denom);
  {
    const util::WriterLock lock(mu_);
    map_.emplace(k, p);
  }
  return p;
}

std::size_t ParamCache::bytes(std::uint64_t j, std::uint32_t fail_denom) {
  return Iblt::serialized_size_for(params(j, fail_denom).cells);
}

std::size_t ParamCache::entries() const {
  const util::ReaderLock lock(mu_);
  return map_.size();
}

void ParamCache::export_stats(obs::Registry* reg) const {
  if (reg == nullptr) return;
  // Gauges, not counters: export_stats publishes snapshots of cache-owned
  // totals, and repeated exports must overwrite rather than accumulate.
  reg->gauge("graphene_param_cache_hits").set(static_cast<double>(hits()));
  reg->gauge("graphene_param_cache_misses").set(static_cast<double>(misses()));
  reg->gauge("graphene_param_cache_entries").set(static_cast<double>(entries()));
}

IbltParams cached_params(ParamCache* cache, std::uint64_t j,
                         std::uint32_t fail_denom) {
  return cache != nullptr ? cache->params(j, fail_denom)
                          : lookup_params(j, fail_denom);
}

std::size_t cached_iblt_bytes(ParamCache* cache, std::uint64_t j,
                              std::uint32_t fail_denom) {
  return cache != nullptr ? cache->bytes(j, fail_denom)
                          : iblt_bytes(j, fail_denom);
}

}  // namespace graphene::iblt
