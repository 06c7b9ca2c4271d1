// Fig. 17: Protocol 2 cost decomposed by message type (getdata, Bloom filter
// S, IBLT I, Bloom filter R, IBLT J) as the fraction of the block held by
// the receiver grows, against the Compact Blocks cost for the same repair.
//
// Transaction bytes are excluded on both sides, as in the paper.
#include <iostream>

#include "baselines/compact_blocks.hpp"
#include "sim/simulator.hpp"
#include "sim/table.hpp"

int main() {
  using namespace graphene;
  const std::uint64_t base_trials = sim::trials_from_env(50);
  const std::unique_ptr<std::ofstream> runs_jsonl = sim::open_runs_jsonl_from_env();
  std::cout << "=== Fig. 17: Protocol 2 cost by message type vs Compact Blocks ===\n\n";

  for (const std::uint64_t n : sim::paper_block_sizes()) {
    const std::uint64_t trials =
        n >= 10000 ? std::max<std::uint64_t>(base_trials / 5, 3) : base_trials;
    sim::TablePrinter table({"fraction held", "getdata", "BF S", "IBLT I", "BF R",
                             "IBLT J", "BF F", "total", "Compact Blocks"});
    for (const double frac : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0}) {
      chain::ScenarioSpec spec;
      spec.block_txns = n;
      spec.extra_txns = n;
      spec.block_fraction_in_mempool = frac;
      const sim::TrialStats stats = sim::run_trials(
          spec, trials, 0xf16017 + n + static_cast<std::uint64_t>(frac * 100),
          sim::paper_config(), false, runs_jsonl.get());

      // Compact Blocks: base encoding + index request for missing txns.
      const auto missing = static_cast<std::uint64_t>((1.0 - frac) * static_cast<double>(n));
      const std::size_t cb = baselines::compact_block_encoding_bytes(n) +
                             (missing > 0
                                  ? 1 + missing * baselines::index_bytes(n)
                                  : 0);

      table.add_row({sim::format_double(frac, 1), sim::format_bytes(stats.mean_getdata),
                     sim::format_bytes(stats.mean_bloom_s),
                     sim::format_bytes(stats.mean_iblt_i),
                     sim::format_bytes(stats.mean_bloom_r),
                     sim::format_bytes(stats.mean_iblt_j),
                     sim::format_bytes(stats.mean_bloom_f),
                     sim::format_bytes(stats.mean_encoding_bytes),
                     sim::format_bytes(static_cast<double>(cb))});
    }
    std::cout << "--- block size " << n << " txns, mempool 2x (trials " << trials
              << ") ---\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected: Graphene total well below the Compact Blocks line at every\n"
               "fraction, with the gap widening as block size grows; IBLT J and BF R\n"
               "dominate at low fractions, BF S + IBLT I at fraction 1.\n";
  return 0;
}
