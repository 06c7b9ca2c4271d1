// Algorithm 1 timing (§4.1): the hypergraph representation makes the search
// an order of magnitude faster than the same search over real, allocated
// IBLTs. The paper reports 29 s vs 426 s at j = 100 with full statistical
// rigor; here both sides use identical, reduced trial counts so the ratio is
// the signal.
//
// Prints a table and writes BENCH_param_search.json (overwritten each run)
// for CI artifact upload. A run takes well under a second, so the bench
// reads neither GRAPHENE_FAST nor GRAPHENE_TRIALS.
#include <cstdio>
#include <fstream>
#include <set>

#include "iblt/hypergraph.hpp"
#include "iblt/iblt.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"

namespace {

using namespace graphene;

constexpr std::uint64_t kJ = 100;
constexpr std::uint32_t kK = 4;
constexpr std::uint64_t kTrialsPerCandidate = 200;

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) / 1e6;
}

/// Decode-rate estimate via hypergraph sampling (Algorithm 1's inner loop).
double rate_hypergraph(std::uint64_t c, util::Rng& rng) {
  std::uint64_t ok = 0;
  for (std::uint64_t t = 0; t < kTrialsPerCandidate; ++t) {
    ok += iblt::hypergraph_decodes(kJ, kK, c, rng) ? 1 : 0;
  }
  return static_cast<double>(ok) / static_cast<double>(kTrialsPerCandidate);
}

/// The same estimate with real IBLT allocation + insertion + peeling.
double rate_real_iblt(std::uint64_t c, util::Rng& rng) {
  std::uint64_t ok = 0;
  for (std::uint64_t t = 0; t < kTrialsPerCandidate; ++t) {
    iblt::Iblt table(iblt::IbltParams{kK, c}, rng.next());
    std::set<std::uint64_t> keys;
    while (keys.size() < kJ) keys.insert(rng.next());
    for (const std::uint64_t key : keys) table.insert(key);
    ok += table.decode().success ? 1 : 0;
  }
  return static_cast<double>(ok) / static_cast<double>(kTrialsPerCandidate);
}

template <typename RateFn>
std::uint64_t binary_search_c(RateFn&& rate, util::Rng& rng) {
  std::uint64_t lo = 1, hi = (kJ * 4) / kK;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (rate(mid * kK, rng) >= 0.95) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi * kK;
}

}  // namespace

int main() {
  util::Rng rng_h(1);
  std::uint64_t start = obs::monotonic_ns();
  const std::uint64_t c_h =
      binary_search_c([](std::uint64_t c, util::Rng& r) { return rate_hypergraph(c, r); },
                      rng_h);
  const double hyper_ms = ms_since(start);

  util::Rng rng_r(2);
  start = obs::monotonic_ns();
  const std::uint64_t c_r =
      binary_search_c([](std::uint64_t c, util::Rng& r) { return rate_real_iblt(c, r); },
                      rng_r);
  const double real_ms = ms_since(start);

  std::printf("Algorithm 1 inner search at j=%llu (reduced trials):\n",
              static_cast<unsigned long long>(kJ));
  std::printf("  hypergraph  %8.1f ms  (c=%llu)\n", hyper_ms,
              static_cast<unsigned long long>(c_h));
  std::printf("  real IBLT   %8.1f ms  (c=%llu)\n", real_ms,
              static_cast<unsigned long long>(c_r));
  std::printf("  ratio       %8.1fx   (paper reports ~14.7x at full rigor)\n",
              real_ms / hyper_ms);

  std::ofstream json("BENCH_param_search.json");
  obs::json::Writer w;
  w.begin_object();
  w.key("j");
  w.number(kJ);
  w.key("hypergraph_ms");
  w.number(hyper_ms);
  w.key("real_iblt_ms");
  w.number(real_ms);
  w.key("hypergraph_speedup");
  w.number(real_ms / hyper_ms);
  w.key("hypergraph_cells");
  w.number(c_h);
  w.key("real_iblt_cells");
  w.number(c_r);
  w.end_object();
  json << w.str() << '\n';
  std::printf("\nwrote BENCH_param_search.json\n");

  return 0;
}
