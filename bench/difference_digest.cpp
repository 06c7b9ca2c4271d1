// §5.3.2: Difference Digest (Eppstein et al.) — the IBLT-only alternative to
// Graphene Protocol 2 — costs several times more for the same scenarios.
#include <iostream>

#include "baselines/difference_digest.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/table.hpp"

int main() {
  using namespace graphene;
  const std::uint64_t trials = sim::trials_from_env(30);
  util::Rng rng(0xd1ffd16);

  std::cout << "=== §5.3.2: Difference Digest vs Graphene (Protocols 1+2) ===\n";
  std::cout << "trials per point: " << trials << "\n\n";

  for (const std::uint64_t n : {200ULL, 2000ULL}) {
    sim::TablePrinter table({"fraction held", "DD estimator", "DD IBLT", "DD total",
                             "Graphene enc", "DD/Graphene", "DD decode rate"});
    for (const double frac : {0.5, 0.8, 0.9, 0.95, 1.0}) {
      sim::Accumulator dd_est, dd_iblt, dd_total, graphene_bytes;
      std::uint64_t dd_ok = 0;
      for (std::uint64_t t = 0; t < trials; ++t) {
        chain::ScenarioSpec spec;
        spec.block_txns = n;
        spec.extra_txns = n;
        spec.block_fraction_in_mempool = frac;
        const chain::Scenario s = chain::make_scenario(spec, rng);

        baselines::DifferenceDigestConfig cfg;
        cfg.seed = rng.next();
        const baselines::DifferenceDigestResult dd =
            baselines::run_difference_digest(s.block, s.receiver_mempool, cfg);
        dd_est.add(static_cast<double>(dd.estimator_bytes));
        dd_iblt.add(static_cast<double>(dd.iblt_bytes));
        dd_total.add(static_cast<double>(dd.total_bytes()));
        dd_ok += dd.success ? 1 : 0;

        const sim::GrapheneRun run = sim::run_graphene(s, rng.next(), sim::paper_config());
        graphene_bytes.add(static_cast<double>(run.encoding_bytes()));
      }
      table.add_row(
          {sim::format_double(frac, 2), sim::format_bytes(dd_est.mean()),
           sim::format_bytes(dd_iblt.mean()), sim::format_bytes(dd_total.mean()),
           sim::format_bytes(graphene_bytes.mean()),
           sim::format_double(dd_total.mean() / graphene_bytes.mean(), 2),
           sim::format_double(static_cast<double>(dd_ok) / static_cast<double>(trials),
                              2)});
    }
    std::cout << "--- block size " << n << " txns, mempool 2x ---\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected: DD/Graphene ratio of several x at every point (the paper\n"
               "calls the Difference Digest \"several times more expensive\").\n";
  return 0;
}
