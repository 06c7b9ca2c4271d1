// Fig. 16: decode failure rate of the full protocol (1 → 2) as the fraction
// of the block already at the receiver varies, with and without ping-pong
// decoding.
//
// Expected shape: both variants stay below the 1/240 bound; ping-pong cuts
// the residual failures by orders of magnitude (most points drop to zero at
// these trial counts).
#include <iostream>

#include "sim/simulator.hpp"
#include "sim/table.hpp"

int main() {
  using namespace graphene;
  const std::uint64_t base_trials = sim::trials_from_env(1000);
  const std::unique_ptr<std::ofstream> runs_jsonl = sim::open_runs_jsonl_from_env();
  std::cout << "=== Fig. 16: Protocol 2 decode failure, with/without ping-pong ===\n\n";

  const core::ProtocolConfig with_pp = sim::paper_config();
  core::ProtocolConfig without_pp = sim::paper_config();
  without_pp.enable_pingpong = false;

  for (const std::uint64_t n : {200ULL, 2000ULL}) {
    const std::uint64_t trials =
        n >= 2000 ? std::max<std::uint64_t>(base_trials / 5, 50) : base_trials;
    sim::TablePrinter table({"block fraction held", "fail (no pingpong)",
                             "fail (pingpong)", "trials", "bound"});
    for (const double frac : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0}) {
      chain::ScenarioSpec spec;
      spec.block_txns = n;
      spec.extra_txns = n;
      spec.block_fraction_in_mempool = frac;
      const std::uint64_t seed =
          0xf16016 + n * 31 + static_cast<std::uint64_t>(frac * 100);
      const sim::TrialStats no_pp = sim::run_trials(spec, trials, seed, without_pp,
                                                    false, runs_jsonl.get());
      const sim::TrialStats pp =
          sim::run_trials(spec, trials, seed, with_pp, false, runs_jsonl.get());
      table.add_row(
          {sim::format_double(frac, 1),
           sim::format_prob(static_cast<double>(no_pp.decode_failures) /
                            static_cast<double>(no_pp.trials)),
           sim::format_prob(static_cast<double>(pp.decode_failures) /
                            static_cast<double>(pp.trials)),
           std::to_string(trials), sim::format_prob(1.0 / 240.0)});
    }
    std::cout << "--- block size " << n << " txns, mempool 2x ---\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected: failure <= 1/240 throughout; the pingpong column is\n"
               "consistently at or below the non-pingpong one (paper reports\n"
               "several-orders-of-magnitude improvement).\n";
  return 0;
}
