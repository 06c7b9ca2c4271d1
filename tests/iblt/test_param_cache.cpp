#include "iblt/param_cache.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "iblt/param_table.hpp"
#include "obs/metrics.hpp"

namespace graphene::iblt {
namespace {

TEST(ParamCache, MatchesDirectLookup) {
  ParamCache cache;
  for (const std::uint64_t j : {1ull, 10ull, 100ull, 1000ull, 100000ull}) {
    for (const std::uint32_t denom : {24u, 240u, 2400u}) {
      const IbltParams direct = lookup_params(j, denom);
      const IbltParams cached = cache.params(j, denom);
      EXPECT_EQ(cached.k, direct.k) << "j=" << j << " denom=" << denom;
      EXPECT_EQ(cached.cells, direct.cells) << "j=" << j << " denom=" << denom;
      EXPECT_EQ(cache.bytes(j, denom), iblt_bytes(j, denom));
    }
  }
}

TEST(ParamCache, CountsHitsAndMisses) {
  ParamCache cache;
  (void)cache.params(50);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  (void)cache.params(50);
  (void)cache.bytes(50);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ParamCache, CanonicalizesFailDenom) {
  // Denominators snap up to the shipped grid, so every spelling of the same
  // effective rate shares one cache entry.
  ParamCache cache;
  (void)cache.params(50, 240);
  (void)cache.params(50, 100);  // snaps to 240
  (void)cache.params(50, 239);  // snaps to 240
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(snap_fail_denom(100), 240u);
  EXPECT_EQ(snap_fail_denom(240), 240u);
  EXPECT_EQ(snap_fail_denom(241), 2400u);
  EXPECT_EQ(snap_fail_denom(1000000), 2400u);  // beyond grid: strictest shipped
}

TEST(ParamCache, NullCacheHelpersFallBackToDirect) {
  const IbltParams direct = lookup_params(77, 240);
  const IbltParams via = cached_params(nullptr, 77, 240);
  EXPECT_EQ(via.k, direct.k);
  EXPECT_EQ(via.cells, direct.cells);
  EXPECT_EQ(cached_iblt_bytes(nullptr, 77, 240), iblt_bytes(77, 240));

  ParamCache cache;
  EXPECT_EQ(cached_params(&cache, 77, 240).cells, direct.cells);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ParamCache, ExportStatsPublishesGauges) {
  ParamCache cache;
  (void)cache.params(50);   // miss
  (void)cache.params(50);   // hit
  (void)cache.params(120);  // miss
  obs::Registry reg;
  cache.export_stats(&reg);
  EXPECT_DOUBLE_EQ(reg.gauge("graphene_param_cache_hits").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("graphene_param_cache_misses").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("graphene_param_cache_entries").value(), 2.0);
  // Gauges, not counters: a re-export overwrites instead of double-counting.
  (void)cache.params(120);  // hit
  cache.export_stats(&reg);
  EXPECT_DOUBLE_EQ(reg.gauge("graphene_param_cache_hits").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("graphene_param_cache_misses").value(), 2.0);
  // A null registry is a no-op, matching the rest of the obs opt-in surface.
  cache.export_stats(nullptr);
}

TEST(ParamCache, ConcurrentHitMissInsertIsRaceFree) {
  // TSan target: many threads hammer overlapping key sets so shared-lock
  // hits, exclusive-lock inserts, and racing same-key misses all interleave.
  const char* stress = std::getenv("GRAPHENE_STRESS");
  const std::uint64_t rounds = (stress != nullptr && *stress == '1') ? 20000 : 2000;
  ParamCache cache;
  constexpr std::uint64_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = t; i < rounds; i += kThreads) {
        const std::uint64_t j = 1 + (i % 97);
        const std::uint32_t denom = kFailDenoms[i % 3];
        const IbltParams p = cache.params(j, denom);
        const IbltParams direct = lookup_params(j, denom);
        ASSERT_EQ(p.k, direct.k);
        ASSERT_EQ(p.cells, direct.cells);
        ASSERT_EQ(cache.bytes(j, denom), iblt_bytes(j, denom));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.entries(), 97u * 3u);
  EXPECT_EQ(cache.hits() + cache.misses(), 2 * rounds);
}

}  // namespace
}  // namespace graphene::iblt
