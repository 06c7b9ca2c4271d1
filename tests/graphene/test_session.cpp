// Session-based receive API: Receiver::session() minting, independence of
// concurrent sessions, and the shared parameter cache wiring through
// ProtocolConfig.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "iblt/param_cache.hpp"
#include "sim/scenario.hpp"

namespace graphene::core {
namespace {

chain::Scenario desync_scenario(std::uint64_t seed, double fraction = 0.8) {
  util::Rng rng(seed);
  chain::ScenarioSpec spec;
  spec.block_txns = 300;
  spec.extra_txns = 600;
  spec.block_fraction_in_mempool = fraction;
  return chain::make_scenario(spec, rng);
}

TEST(ReceiveSessionApi, SessionDrivesFullProtocol) {
  const chain::Scenario s = desync_scenario(1);
  Sender sender(s.block, 7);
  Receiver receiver(s.receiver_mempool);
  ReceiveSession session = receiver.session();
  const ReceiveOutcome out = relay_block(sender, session, s.m).outcome;
  EXPECT_EQ(out.status, ReceiveStatus::kDecoded);
  EXPECT_TRUE(out.merkle_ok);
  EXPECT_EQ(session.block_transactions().size(), s.block.tx_count());
}

TEST(ReceiveSessionApi, SessionsFromOneReceiverAreIndependent) {
  const chain::Scenario s = desync_scenario(2);
  Sender sender_a(s.block, 11);
  Sender sender_b(s.block, 22);  // different salt → different short IDs
  Receiver receiver(s.receiver_mempool);

  // Interleave two relays of the same block from two peers; each session
  // keeps its own candidate set and salt, so neither disturbs the other.
  ReceiveSession sa = receiver.session();
  ReceiveSession sb = receiver.session();
  const GrapheneBlockMsg ma = sender_a.encode(s.m).msg;
  const GrapheneBlockMsg mb = sender_b.encode(s.m).msg;
  ReceiveOutcome oa = sa.receive_block(ma);
  ReceiveOutcome ob = sb.receive_block(mb);
  if (oa.status == ReceiveStatus::kNeedsProtocol2) {
    const GrapheneRequestMsg ra = sa.build_request();
    if (ob.status == ReceiveStatus::kNeedsProtocol2) {
      ob = sb.complete(sender_b.serve(sb.build_request()));
    }
    oa = sa.complete(sender_a.serve(ra));
  } else if (ob.status == ReceiveStatus::kNeedsProtocol2) {
    ob = sb.complete(sender_b.serve(sb.build_request()));
  }
  if (oa.status == ReceiveStatus::kNeedsRepair) {
    oa = sa.complete_repair(sender_a.serve_repair(sa.build_repair()));
  }
  if (ob.status == ReceiveStatus::kNeedsRepair) {
    ob = sb.complete_repair(sender_b.serve_repair(sb.build_repair()));
  }
  EXPECT_EQ(oa.status, ReceiveStatus::kDecoded);
  EXPECT_EQ(ob.status, ReceiveStatus::kDecoded);
}

TEST(ReceiveSessionApi, ConcurrentSessionsAcrossPoolThreads) {
  // TSan target: one Sender and one Receiver driven against many peers at
  // once from several threads. encode() is const with no mutable state and
  // every relay gets its own session, so this must be race-free, with the
  // shared ParamCache plumbed through the config as in production.
  const chain::Scenario s = desync_scenario(3);
  iblt::ParamCache cache;
  ProtocolConfig cfg;
  cfg.param_cache = &cache;

  Sender sender(s.block, 99, cfg);
  Receiver receiver(s.receiver_mempool, cfg);

  constexpr std::uint64_t kPeers = 16;
  constexpr std::uint64_t kThreads = 4;
  std::atomic<std::uint64_t> decoded{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t peer = t; peer < kPeers; peer += kThreads) {
        // Each peer claims a different mempool size, so encodes differ too.
        ReceiveSession session = receiver.session();
        const ReceiveOutcome out = relay_block(sender, session, s.m + peer).outcome;
        if (out.status == ReceiveStatus::kDecoded) {
          decoded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Individual relays may hit the ~1/fail_denom IBLT failure; all failing
  // would mean shared state corruption, not bad luck.
  EXPECT_GE(decoded.load(), kPeers - 2);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(ReceiveSessionApi, EncodeIsPureAndRepeatable) {
  const chain::Scenario s = desync_scenario(4);
  Sender sender(s.block, 5);
  const EncodeResult a = sender.encode(s.m);
  const EncodeResult b = sender.encode(s.m);
  EXPECT_EQ(a.params.a_star, b.params.a_star);
  EXPECT_EQ(a.params.bloom_bytes, b.params.bloom_bytes);
  EXPECT_EQ(a.msg.serialize(), b.msg.serialize());
}

TEST(ReceiveSessionApi, FreshSessionsDecodeTheSameBlockRepeatedly) {
  // Replaying one relayed block through sessions minted from the same
  // Receiver must work every time — each session starts fresh.
  const chain::Scenario s = desync_scenario(5, /*fraction=*/1.0);
  Sender sender(s.block, 13);
  Receiver receiver(s.receiver_mempool);
  const GrapheneBlockMsg msg = sender.encode(s.m).msg;
  for (int round = 0; round < 2; ++round) {
    ReceiveSession session = receiver.session();
    const ReceiveOutcome out = session.receive_block(msg);
    EXPECT_EQ(out.status, ReceiveStatus::kDecoded) << "round " << round;
    // With full overlap every block transaction passes S, so z >= n.
    EXPECT_GE(session.observed_z(), s.block.tx_count());
  }
}

TEST(ReceiveSessionApi, SharedParamCacheAcceleratesOptimizers) {
  const chain::Scenario s = desync_scenario(6);
  iblt::ParamCache cache;
  ProtocolConfig cfg;
  cfg.param_cache = &cache;
  Sender sender(s.block, 21, cfg);
  (void)sender.encode(s.m);
  const std::uint64_t misses_after_first = cache.misses();
  EXPECT_GT(misses_after_first, 0u);
  (void)sender.encode(s.m);  // identical optimization: pure cache hits
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GT(cache.hits(), 0u);
}

}  // namespace
}  // namespace graphene::core
