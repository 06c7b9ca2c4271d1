// Fig. 18: mempool synchronization with m = n — peers share a fraction of
// their pools (x-axis) and reconcile; Graphene's encoding bytes vs a Compact
// Blocks-based sync of the same pool.
//
// Expected shape: Graphene cheaper at every overlap, advantage growing with
// pool size; the m ≈ n reversal (filter F) makes low-overlap points viable.
#include <iostream>

#include "baselines/compact_blocks.hpp"
#include "graphene/mempool_sync.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/table.hpp"

int main() {
  using namespace graphene;
  const std::uint64_t base_trials = sim::trials_from_env(20);
  util::Rng rng(0xf16018);

  std::cout << "=== Fig. 18: mempool sync (m = n) vs Compact Blocks ===\n\n";

  for (const std::uint64_t n : sim::paper_block_sizes()) {
    const std::uint64_t trials =
        n >= 10000 ? std::max<std::uint64_t>(base_trials / 5, 3) : base_trials;
    // Compact Blocks applied to the sync: announce the pool (6 B/txn) and
    // request the missing entries by index.
    sim::TablePrinter table({"fraction common", "Graphene sync", "Compact Blocks",
                             "ratio", "sync failures"});
    for (const double frac : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0}) {
      sim::Accumulator graphene_bytes;
      std::uint64_t failures = 0;
      const auto common = static_cast<std::uint64_t>(frac * static_cast<double>(n));
      for (std::uint64_t t = 0; t < trials; ++t) {
        chain::MempoolPair pair = chain::make_mempool_pair(n, common, rng);
        const core::MempoolSyncResult r =
            core::sync_mempools(pair.a, pair.b, rng.next(), sim::paper_config());
        failures += r.success ? 0 : 1;
        graphene_bytes.add(static_cast<double>(r.graphene_bytes));
      }
      const std::size_t cb = baselines::compact_block_encoding_bytes(n) +
                             (n > common ? 1 + (n - common) * baselines::index_bytes(n)
                                         : 0);
      table.add_row({sim::format_double(frac, 1),
                     sim::format_bytes(graphene_bytes.mean()),
                     sim::format_bytes(static_cast<double>(cb)),
                     sim::format_double(graphene_bytes.mean() / static_cast<double>(cb), 3),
                     std::to_string(failures)});
    }
    std::cout << "--- pool size " << n << " txns each (trials " << trials << ") ---\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected: Graphene below Compact Blocks across overlaps, advantage\n"
               "increasing with pool size (paper Fig. 18).\n";
  return 0;
}
