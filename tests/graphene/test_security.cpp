// Security behaviors from §6.1: malformed IBLTs must not hang the receiver,
// and manufactured short-ID collisions must degrade gracefully rather than
// deterministically break the protocol.
#include <gtest/gtest.h>

#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "sim/scenario.hpp"

namespace graphene::core {
namespace {

TEST(Security, MalformedIbltInBlockMessageIsRejectedNotLooped) {
  util::Rng rng(1);
  chain::ScenarioSpec spec;
  spec.block_txns = 50;
  spec.extra_txns = 100;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  Sender sender(s.block, 7);
  GrapheneBlockMsg msg = sender.encode(s.m).msg;

  // Craft a k−1 insertion directly in the wire IBLT: decode at the receiver
  // must terminate (status anything but a hang) — §6.1.
  auto& cells = msg.iblt_i.cells_for_test();
  bool corrupted = false;
  for (auto& cell : cells) {
    if (cell.count >= 1) {
      cell.count -= 1;
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);

  ReceiveSession session = Receiver(s.receiver_mempool).session();
  const ReceiveOutcome out = session.receive_block(msg);
  EXPECT_NE(out.status, ReceiveStatus::kDecoded);
}

TEST(Security, RepairServesEachShortIdOnce) {
  // A getblocktxn that repeats short IDs buys each transaction once, not once
  // per 8-byte repeat: a reply never holds more than the block.
  util::Rng rng(3);
  chain::ScenarioSpec spec;
  spec.block_txns = 50;
  spec.extra_txns = 10;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  const Sender sender(s.block, 11);
  const chain::Transaction& first = s.block.transactions()[0];
  const chain::Transaction& second = s.block.transactions()[1];
  const std::uint64_t a = derive_short_id(first.id, sender.salt(), {});
  const std::uint64_t b = derive_short_id(second.id, sender.salt(), {});
  RepairRequestMsg req;
  req.short_ids = {a, b, a, b};
  req.short_ids.insert(req.short_ids.end(), 1000, a);
  const RepairResponseMsg resp = sender.serve_repair(req);
  ASSERT_EQ(resp.txns.size(), 2u);
  EXPECT_EQ(resp.txns[0].id, first.id);
  EXPECT_EQ(resp.txns[1].id, second.id);
}

TEST(Security, KeyedShortIdsDefeatPrecomputedCollisions) {
  // Two transactions crafted to share truncated 8-byte IDs: with keyed
  // (SipHash) short IDs their IBLT keys differ for almost every salt.
  util::Rng rng(2);
  chain::Transaction t1 = chain::make_random_transaction(rng);
  chain::Transaction t2 = chain::make_random_transaction(rng);
  // Force the first 8 bytes equal (the truncation an attacker can grind).
  for (int i = 0; i < 8; ++i) t2.id[static_cast<std::size_t>(i)] = t1.id[static_cast<std::size_t>(i)];

  ASSERT_EQ(chain::short_id(t1.id), chain::short_id(t2.id));

  ProtocolConfig keyed;
  keyed.keyed_short_ids = true;
  int collisions = 0;
  for (std::uint64_t salt = 0; salt < 100; ++salt) {
    if (derive_short_id(t1.id, salt, keyed) == derive_short_id(t2.id, salt, keyed)) {
      ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Security, TruncatedCollisionInMempoolStillUsuallyDecodes) {
  // Worst case from §6.1 staged with *unkeyed* short IDs: the receiver's
  // mempool holds a transaction whose truncated ID collides with a block
  // transaction she does not have. Graphene fails only with probability
  // f_S·f_R; over a few trials at least one full run must succeed.
  util::Rng rng(3);
  ProtocolConfig cfg;
  cfg.keyed_short_ids = false;

  int decoded = 0;
  for (int t = 0; t < 5; ++t) {
    chain::ScenarioSpec spec;
    spec.block_txns = 100;
    spec.extra_txns = 200;
    spec.block_fraction_in_mempool = 1.0;
    chain::Scenario s = chain::make_scenario(spec, rng);

    // Attacker: collide a new mempool transaction with block txn 0 on the
    // first 8 bytes, then remove the real one from the receiver's pool.
    const chain::Transaction& victim = s.block.transactions()[0];
    chain::Transaction evil = chain::make_random_transaction(rng);
    for (int i = 0; i < 8; ++i) evil.id[static_cast<std::size_t>(i)] = victim.id[static_cast<std::size_t>(i)];
    chain::Mempool attacked = s.receiver_mempool;
    attacked.erase(victim.id);
    attacked.insert(evil);
    s.receiver_mempool = attacked;

    Sender sender(s.block, rng.next(), cfg);
    ReceiveSession session = Receiver(s.receiver_mempool, cfg).session();
    const Relay relay = relay_block(sender, session, s.receiver_mempool.size());
    decoded += relay.outcome.status == ReceiveStatus::kDecoded ? 1 : 0;
  }
  EXPECT_GE(decoded, 1);
}

TEST(Security, MerkleValidationCatchesWrongCandidateSet) {
  // If the receiver's candidate set silently diverges (simulated by feeding
  // a block message whose header root is wrong), finalize must fail closed.
  util::Rng rng(4);
  chain::ScenarioSpec spec;
  spec.block_txns = 50;
  spec.extra_txns = 50;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  Sender sender(s.block, 8);
  GrapheneBlockMsg msg = sender.encode(s.m).msg;
  msg.header.merkle_root[0] ^= 0xff;

  ReceiveSession session = Receiver(s.receiver_mempool).session();
  const ReceiveOutcome out = session.receive_block(msg);
  EXPECT_NE(out.status, ReceiveStatus::kDecoded);
  EXPECT_FALSE(out.merkle_ok);
}

}  // namespace
}  // namespace graphene::core
