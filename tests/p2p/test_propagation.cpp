#include "p2p/propagation.hpp"

#include <gtest/gtest.h>

#include <string>

#include "chain/workload.hpp"

namespace graphene::p2p {
namespace {

chain::Block make_block(std::uint64_t n, util::Rng& rng) {
  std::vector<chain::Transaction> txs;
  txs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) txs.push_back(chain::make_random_transaction(rng));
  return chain::Block(chain::BlockHeader{}, std::move(txs));
}

TEST(Propagation, BlockReachesEveryPeer) {
  util::Rng rng(1);
  const chain::Block block = make_block(100, rng);
  const Topology topo = Topology::random_regular(20, 4, rng);
  PropagationConfig cfg;
  cfg.protocol = RelayProtocol::kGraphene;
  const PropagationResult r = propagate_block(block, topo, cfg, rng);
  EXPECT_GT(r.relays, 0u);
  EXPECT_GT(r.total_bytes, 0u);
  EXPECT_GT(r.t99_s, 0.0);
  EXPECT_LE(r.t50_s, r.t99_s);
}

TEST(Propagation, GrapheneUsesFarFewerBytesThanFullBlocks) {
  util::Rng rng(2);
  const chain::Block block = make_block(500, rng);
  const Topology topo = Topology::random_regular(15, 4, rng);

  PropagationConfig graphene_cfg;
  graphene_cfg.protocol = RelayProtocol::kGraphene;
  util::Rng r1(99);
  const PropagationResult graphene = propagate_block(block, topo, graphene_cfg, r1);

  PropagationConfig full_cfg;
  full_cfg.protocol = RelayProtocol::kFullBlocks;
  util::Rng r2(99);
  const PropagationResult full = propagate_block(block, topo, full_cfg, r2);

  EXPECT_LT(graphene.total_bytes * 10, full.total_bytes);
  EXPECT_LT(graphene.t99_s, full.t99_s);
}

TEST(Propagation, CompactBlocksBetweenGrapheneAndFull) {
  util::Rng rng(3);
  const chain::Block block = make_block(500, rng);
  const Topology topo = Topology::random_regular(15, 4, rng);
  std::size_t bytes[3] = {};
  const RelayProtocol protocols[] = {RelayProtocol::kGraphene,
                                     RelayProtocol::kCompactBlocks,
                                     RelayProtocol::kFullBlocks};
  for (int i = 0; i < 3; ++i) {
    PropagationConfig cfg;
    cfg.protocol = protocols[i];
    util::Rng r(42);
    bytes[static_cast<std::size_t>(i)] = propagate_block(block, topo, cfg, r).total_bytes;
  }
  EXPECT_LT(bytes[0], bytes[1]);
  EXPECT_LT(bytes[1], bytes[2]);
}

TEST(Propagation, IncompleteMempoolsStillPropagate) {
  util::Rng rng(4);
  const chain::Block block = make_block(200, rng);
  const Topology topo = Topology::random_regular(12, 4, rng);
  PropagationConfig cfg;
  cfg.protocol = RelayProtocol::kGraphene;
  cfg.mempool_coverage = 0.8;  // every peer missing ~20% of the block
  const PropagationResult r = propagate_block(block, topo, cfg, rng);
  EXPECT_GT(r.relays, 0u);
  // Missing txns flow as payload, so bytes exceed the fully-synced case.
  PropagationConfig synced = cfg;
  synced.mempool_coverage = 1.0;
  util::Rng r2(4);
  const PropagationResult full_sync = propagate_block(block, topo, synced, r2);
  EXPECT_GT(r.total_bytes, full_sync.total_bytes);
}

TEST(Propagation, LatencyScalesWithBandwidth) {
  util::Rng rng(5);
  const chain::Block block = make_block(300, rng);
  const Topology topo = Topology::random_regular(10, 3, rng);
  PropagationConfig fast;
  fast.protocol = RelayProtocol::kFullBlocks;
  fast.link.bandwidth_bps = 10e6;
  PropagationConfig slow = fast;
  slow.link.bandwidth_bps = 0.1e6;
  util::Rng ra(7), rb(7);
  const PropagationResult rfast = propagate_block(block, topo, fast, ra);
  const PropagationResult rslow = propagate_block(block, topo, slow, rb);
  EXPECT_GT(rslow.t99_s, rfast.t99_s);
}

TEST(Propagation, EachRoundTripAddsTwoLatencies) {
  // A relay of r round trips lands after 2r − 1 one-way latencies plus its
  // bytes over the bandwidth. On the default link (1 MB/s, 50 ms) a peer
  // missing a tenth of the block needs Protocol 2 (Graphene) or getblocktxn
  // (Compact Blocks). A peer holding none of it makes XThin's filter pass a
  // missing transaction, and the relay falls back to the full block, one
  // more trip. A link without latency prices a round trip at 0 bytes, so
  // Graphene sizes R for bytes alone and also takes the repair round.
  util::Rng rng(6);
  const chain::Block block = make_block(2000, rng);
  const Topology topo = Topology::clique(2);
  struct Case {
    RelayProtocol protocol;
    double coverage;
    double latency_s;
    std::uint64_t rounds;
    std::size_t fallbacks;
  };
  for (const Case& c : {Case{RelayProtocol::kGraphene, 0.9, 0.05, 2, 0},
                        Case{RelayProtocol::kGraphene, 0.9, 0.0, 3, 0},
                        Case{RelayProtocol::kCompactBlocks, 0.9, 0.05, 2, 0},
                        Case{RelayProtocol::kFullBlocks, 0.9, 0.05, 1, 0},
                        Case{RelayProtocol::kXthin, 0.0, 0.05, 2, 1}}) {
    PropagationConfig cfg;
    cfg.protocol = c.protocol;
    cfg.mempool_coverage = c.coverage;
    cfg.link.latency_s = c.latency_s;
    util::Rng r(8);
    const PropagationResult res = propagate_block(block, topo, cfg, r);
    const std::string what =
        std::string(protocol_name(c.protocol)) + " at " + std::to_string(c.latency_s) + " s";
    ASSERT_EQ(res.relays, 1u) << what;
    EXPECT_EQ(res.rounds, c.rounds) << what;
    EXPECT_EQ(res.decode_failures, c.fallbacks) << what;
    EXPECT_NEAR(res.t99_s,
                static_cast<double>(2 * c.rounds - 1) * c.latency_s +
                    static_cast<double>(res.total_bytes) / cfg.link.bandwidth_bps,
                1e-9)
        << what;
  }
}

TEST(Propagation, LinkRoundTripBytes) {
  LinkModel link;
  link.latency_s = 0.05;
  link.bandwidth_bps = 1e6;
  EXPECT_EQ(link.round_trip_bytes(), 100'000u);
}

TEST(Propagation, ProtocolNamesAreDistinct) {
  EXPECT_STRNE(protocol_name(RelayProtocol::kGraphene),
               protocol_name(RelayProtocol::kCompactBlocks));
  EXPECT_STRNE(protocol_name(RelayProtocol::kXthin),
               protocol_name(RelayProtocol::kFullBlocks));
}

}  // namespace
}  // namespace graphene::p2p
