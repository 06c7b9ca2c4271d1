// Network-wide ablation (the §1 motivation, quantified): block propagation
// time and total bandwidth over a 30-peer random graph for each relay
// protocol, across block sizes. Graphene relays size Protocol 2 for the
// link's bandwidth × RTT.
#include <iostream>

#include "p2p/propagation.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "sim/table.hpp"

int main() {
  using namespace graphene;
  const std::uint64_t trials = sim::trials_from_env(5);
  util::Rng rng(0xbe7a);

  std::cout << "=== Network propagation: bandwidth & latency by protocol ===\n";
  std::cout << "30 peers, degree 8, 1 MB/s links, 50 ms latency, 99.5% mempool "
               "coverage; a relay of r round trips takes (2r - 1) latencies; Graphene "
               "prices a round trip at the link's 100,000 B; trials per point: "
            << trials << "\n\n";

  for (const std::uint64_t n : {200ULL, 1000ULL, 4000ULL}) {
    sim::TablePrinter table({"protocol", "total bytes", "t50 (s)", "t99 (s)",
                             "bytes vs full"});
    double full_bytes = 0.0;
    struct Row {
      p2p::RelayProtocol protocol;
      sim::Accumulator bytes, t50, t99;
    };
    std::vector<Row> rows;
    for (const p2p::RelayProtocol protocol :
         {p2p::RelayProtocol::kGraphene, p2p::RelayProtocol::kCompactBlocks,
          p2p::RelayProtocol::kXthin, p2p::RelayProtocol::kFullBlocks}) {
      rows.push_back({protocol, {}, {}, {}});
    }

    for (std::uint64_t t = 0; t < trials; ++t) {
      std::vector<chain::Transaction> txs;
      txs.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        txs.push_back(chain::make_random_transaction(rng));
      }
      const chain::Block block(chain::BlockHeader{}, std::move(txs));
      const p2p::Topology topo = p2p::Topology::random_regular(30, 8, rng);
      const std::uint64_t run_seed = rng.next();
      for (Row& row : rows) {
        p2p::PropagationConfig cfg;
        cfg.protocol = row.protocol;
        cfg.mempool_coverage = 0.995;
        util::Rng run_rng(run_seed);
        const p2p::PropagationResult r = p2p::propagate_block(block, topo, cfg, run_rng);
        row.bytes.add(static_cast<double>(r.total_bytes));
        row.t50.add(r.t50_s);
        row.t99.add(r.t99_s);
        if (row.protocol == p2p::RelayProtocol::kFullBlocks) {
          full_bytes = row.bytes.mean();
        }
      }
    }
    for (const Row& row : rows) {
      table.add_row({p2p::protocol_name(row.protocol),
                     sim::format_bytes(row.bytes.mean()),
                     sim::format_double(row.t50.mean(), 3),
                     sim::format_double(row.t99.mean(), 3),
                     sim::format_double(row.bytes.mean() / full_bytes, 4)});
    }
    std::cout << "--- block size " << n << " txns ---\n";
    table.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected: graphene << compact-blocks < xthin << full-blocks in\n"
               "bytes, and correspondingly faster t99 — the §1 scaling argument.\n";
  return 0;
}
