// Cross-module integration: full wire-serialized relay through a Channel,
// exercising serialization, both protocols, repair, validation, and byte
// accounting together.
#include <gtest/gtest.h>

#include "baselines/compact_blocks.hpp"
#include "baselines/xthin.hpp"
#include "graphene/mempool_sync.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "net/channel.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

namespace graphene {
namespace {

/// Relays a block with every message round-tripped through real bytes, as a
/// remote peer would see them.
core::ReceiveOutcome relay_over_wire(const chain::Scenario& s, std::uint64_t salt,
                                     net::Channel& channel,
                                     const core::ProtocolConfig& cfg = {}) {
  core::Sender sender(s.block, salt, cfg);
  core::ReceiveSession receiver(s.receiver_mempool, cfg);

  const auto roundtrip = [&](auto msg, net::Direction dir, net::MessageType type) {
    const net::Message& sent = channel.send(dir, net::Message{type, msg.serialize()});
    util::ByteReader reader{util::ByteView(sent.payload)};
    auto parsed = decltype(msg)::deserialize(reader);
    EXPECT_TRUE(reader.done());
    return parsed;
  };

  core::ReceiveOutcome out = receiver.receive_block(
      roundtrip(sender.encode(s.receiver_mempool.size()).msg,
                net::Direction::kSenderToReceiver, net::MessageType::kGrapheneBlock));
  if (out.status == core::ReceiveStatus::kNeedsProtocol2) {
    const auto req = roundtrip(receiver.build_request(),
                               net::Direction::kReceiverToSender,
                               net::MessageType::kGrapheneRequest);
    out = receiver.complete(roundtrip(sender.serve(req),
                                      net::Direction::kSenderToReceiver,
                                      net::MessageType::kGrapheneResponse));
  }
  if (out.status == core::ReceiveStatus::kNeedsRepair) {
    const auto req = roundtrip(receiver.build_repair(),
                               net::Direction::kReceiverToSender,
                               net::MessageType::kGetBlockTxn);
    out = receiver.complete_repair(roundtrip(sender.serve_repair(req),
                                             net::Direction::kSenderToReceiver,
                                             net::MessageType::kBlockTxn));
  }
  return out;
}

TEST(EndToEnd, WireSerializedProtocol1) {
  util::Rng rng(1);
  chain::ScenarioSpec spec;
  spec.block_txns = 500;
  spec.extra_txns = 1000;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  net::Channel channel;
  const core::ReceiveOutcome out = relay_over_wire(s, 77, channel);
  ASSERT_EQ(out.status, core::ReceiveStatus::kDecoded);
  EXPECT_EQ(out.block_ids, s.block.tx_ids());
  EXPECT_GT(channel.payload_bytes(net::Direction::kSenderToReceiver), 0u);
}

TEST(EndToEnd, WireSerializedProtocol2WithMissingTxns) {
  util::Rng rng(2);
  int decoded = 0;
  for (int t = 0; t < 10; ++t) {
    chain::ScenarioSpec spec;
    spec.block_txns = 300;
    spec.extra_txns = 300;
    spec.block_fraction_in_mempool = 0.8;
    const chain::Scenario s = chain::make_scenario(spec, rng);
    net::Channel channel;
    const core::ReceiveOutcome out = relay_over_wire(s, rng.next(), channel);
    if (out.status == core::ReceiveStatus::kDecoded) {
      ++decoded;
      EXPECT_EQ(out.block_ids, s.block.tx_ids());
      // Protocol 2 ⇒ traffic flowed in both directions.
      EXPECT_GT(channel.payload_bytes(net::Direction::kReceiverToSender), 0u);
    }
  }
  EXPECT_GE(decoded, 9);
}

TEST(EndToEnd, GrapheneBeatsCompactBlocksAndXthinOnWire) {
  // §5.3 headline, measured over real serialized messages.
  util::Rng rng(3);
  chain::ScenarioSpec spec;
  spec.block_txns = 2000;
  spec.extra_txns = 2000;
  const chain::Scenario s = chain::make_scenario(spec, rng);

  net::Channel graphene_ch;
  ASSERT_EQ(relay_over_wire(s, 88, graphene_ch).status, core::ReceiveStatus::kDecoded);
  const std::size_t graphene_bytes =
      graphene_ch.payload_bytes(net::Direction::kSenderToReceiver) +
      graphene_ch.payload_bytes(net::Direction::kReceiverToSender);

  const auto cb = baselines::run_compact_blocks(s.block, s.receiver_mempool, 88);
  const auto xt = baselines::run_xthin(s.block, s.receiver_mempool);

  EXPECT_LT(graphene_bytes, cb.encoding_bytes());
  EXPECT_LT(graphene_bytes, xt.encoding_bytes());
  EXPECT_LT(graphene_bytes, xt.encoding_bytes_xthin_star());
}

TEST(EndToEnd, RepeatedRelaysFromSameSenderState) {
  // A sender must be able to serve multiple receivers (pure encode/serve).
  util::Rng rng(4);
  chain::ScenarioSpec spec;
  spec.block_txns = 150;
  spec.extra_txns = 150;
  const chain::Scenario s1 = chain::make_scenario(spec, rng);

  core::Sender sender(s1.block, 5);
  for (int i = 0; i < 3; ++i) {
    core::ReceiveSession receiver(s1.receiver_mempool);
    const auto out = receiver.receive_block(sender.encode(s1.m).msg);
    EXPECT_EQ(out.status, core::ReceiveStatus::kDecoded);
  }
}

TEST(EndToEnd, Protocol1RunEmitsExpectedSpanSequence) {
  // Telemetry contract: a clean Protocol-1 relay produces exactly the
  // sender's three encode stages followed by the receiver's two decode
  // stages, and the per-outcome counter records the decode.
  util::Rng rng(6);
  chain::ScenarioSpec spec;
  spec.block_txns = 500;
  spec.extra_txns = 1000;
  const chain::Scenario s = chain::make_scenario(spec, rng);

  obs::Registry reg;
  core::ProtocolConfig cfg;
  cfg.obs = &reg;
  core::Sender sender(s.block, 99, cfg);
  core::ReceiveSession receiver(s.receiver_mempool, cfg);
  const auto out = receiver.receive_block(sender.encode(s.receiver_mempool.size()).msg);
  ASSERT_EQ(out.status, core::ReceiveStatus::kDecoded);

  const std::vector<std::string> expected = {"p1_optimize", "sfilter_build",
                                             "iblt_build", "p1_candidates", "p1_peel"};
  EXPECT_EQ(reg.trace().stages(), expected);

  obs::TraceSpan peel;
  ASSERT_TRUE(reg.trace().find("p1_peel", &peel));
  EXPECT_DOUBLE_EQ(peel.attr("success"), 1.0);
  EXPECT_DOUBLE_EQ(peel.attr("residual_cells"), 0.0);

  obs::TraceSpan cand;
  ASSERT_TRUE(reg.trace().find("p1_candidates", &cand));
  EXPECT_GE(cand.attr("z"), static_cast<double>(spec.block_txns));
  EXPECT_DOUBLE_EQ(cand.attr("m"), static_cast<double>(s.receiver_mempool.size()));

  const obs::Counter* decoded =
      reg.find_counter("graphene_p1_decode_total", {{"result", "decoded"}});
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->value(), 1u);
}

TEST(EndToEnd, Protocol2RunEmitsRequestAndPeelSpans) {
  // Drive a receiver that is missing block transactions; the trace must walk
  // through the Protocol 2 stages in order.
  util::Rng rng(7);
  chain::ScenarioSpec spec;
  spec.block_txns = 300;
  spec.extra_txns = 300;
  spec.block_fraction_in_mempool = 0.8;
  const chain::Scenario s = chain::make_scenario(spec, rng);

  obs::Registry reg;
  core::ProtocolConfig cfg;
  cfg.obs = &reg;
  core::Sender sender(s.block, 44, cfg);
  core::ReceiveSession receiver(s.receiver_mempool, cfg);
  ASSERT_TRUE(core::relay_block(sender, receiver, s.receiver_mempool.size()).request);

  for (const char* stage : {"thm_bounds", "rfilter_build", "p2_serve", "p2_peel"}) {
    EXPECT_TRUE(reg.trace().find(stage)) << stage;
  }
  obs::TraceSpan bounds;
  ASSERT_TRUE(reg.trace().find("thm_bounds", &bounds));
  EXPECT_GT(bounds.attr("y_star"), 0.0);
  EXPECT_GT(bounds.attr("b"), 0.0);
}

TEST(EndToEnd, MempoolSyncThenBlockRelay) {
  // Realistic pipeline: peers sync mempools, then a block composed of the
  // synced transactions relays via Protocol 1 on the first try.
  util::Rng rng(5);
  chain::MempoolPair pair = chain::make_mempool_pair(600, 300, rng);
  const core::MempoolSyncResult sync = core::sync_mempools(pair.a, pair.b, rng.next());
  ASSERT_TRUE(sync.success);

  // Mine a block from 200 of the (now shared) transactions.
  auto txs = pair.a.transactions();
  txs.resize(200);
  const chain::Block block(chain::BlockHeader{}, txs);

  chain::Scenario s;
  s.block = block;
  s.receiver_mempool = pair.b;
  s.n = 200;
  s.m = pair.b.size();
  const sim::GrapheneRun run = sim::run_graphene(s, rng.next());
  EXPECT_TRUE(run.decoded);
  EXPECT_TRUE(run.p1_decoded);
}

}  // namespace
}  // namespace graphene
