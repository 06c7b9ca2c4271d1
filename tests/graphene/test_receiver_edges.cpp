// Receiver state-machine edge cases: calls out of order, re-used receivers,
// degenerate block/mempool shapes, and the spam-relay scenario from §2.2.
#include <gtest/gtest.h>

#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "sim/scenario.hpp"

namespace graphene::core {
namespace {

TEST(ReceiverEdges, BuildRequestBeforeReceiveThrows) {
  chain::Mempool pool;
  ReceiveSession receiver = Receiver(pool).session();
  EXPECT_THROW((void)receiver.build_request(), std::logic_error);
}

TEST(ReceiverEdges, BuildRequestErrorCarriesDiagnosticContext) {
  chain::Mempool pool;
  ReceiveSession receiver = Receiver(pool).session();
  try {
    (void)receiver.build_request();
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.stage(), "build_request");
    EXPECT_FALSE(e.context().have_block_msg);
    EXPECT_EQ(e.context().z, 0u);
    // what() embeds the formatted snapshot for plain log consumers.
    const std::string what = e.what();
    EXPECT_NE(what.find("have_block_msg=false"), std::string::npos) << what;
    EXPECT_NE(what.find("z=0"), std::string::npos) << what;
  }
}

TEST(ReceiverEdges, ErrorContextReflectsObservedState) {
  // After a real Protocol-1 failure path the context snapshots the observed
  // z and the Theorem-2/3 bounds from the last request.
  util::Rng rng(77);
  chain::ScenarioSpec spec;
  spec.block_txns = 200;
  spec.extra_txns = 200;
  spec.block_fraction_in_mempool = 0.7;
  const chain::Scenario s = chain::make_scenario(spec, rng);

  Sender sender(s.block, 123);
  ReceiveSession receiver = Receiver(s.receiver_mempool).session();
  const ReceiveOutcome out = receiver.receive_block(sender.encode(s.m).msg);
  ASSERT_EQ(out.status, ReceiveStatus::kNeedsProtocol2);
  const GrapheneRequestMsg req = receiver.build_request();
  EXPECT_EQ(receiver.observed_z(), req.z);
  EXPECT_EQ(receiver.request_params().y_star, req.y_star);
}

TEST(ReceiverEdges, CompleteBeforeReceiveFailsClosed) {
  chain::Mempool pool;
  ReceiveSession receiver = Receiver(pool).session();
  GrapheneResponseMsg resp;
  resp.iblt_j = iblt::Iblt(iblt::IbltParams{4, 8}, 1);
  const ReceiveOutcome out = receiver.complete(resp);
  EXPECT_EQ(out.status, ReceiveStatus::kFailed);
}

TEST(ReceiverEdges, ReceiverIsReusableAcrossBlocks) {
  util::Rng rng(1);
  chain::ScenarioSpec spec;
  spec.block_txns = 100;
  spec.extra_txns = 100;
  const chain::Scenario s1 = chain::make_scenario(spec, rng);
  ReceiveSession receiver = Receiver(s1.receiver_mempool).session();
  {
    Sender sender(s1.block, rng.next());
    EXPECT_EQ(receiver.receive_block(sender.encode(s1.m).msg).status,
              ReceiveStatus::kDecoded);
  }
  // A second, different block against the same receiver object: per-block
  // state must fully reset. Build its mempool from the first scenario's pool
  // plus the new block.
  chain::Scenario s2 = chain::make_scenario(spec, rng);
  chain::Mempool merged = s1.receiver_mempool;
  for (const chain::Transaction& tx : s2.block.transactions()) merged.insert(tx);
  ReceiveSession receiver2 = Receiver(merged).session();
  Sender sender2(s2.block, rng.next());
  EXPECT_EQ(receiver2.receive_block(sender2.encode(merged.size()).msg).status,
            ReceiveStatus::kDecoded);
}

TEST(ReceiverEdges, SingleTransactionBlock) {
  util::Rng rng(2);
  chain::ScenarioSpec spec;
  spec.block_txns = 1;
  spec.extra_txns = 100;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  Sender sender(s.block, rng.next());
  ReceiveSession receiver = Receiver(s.receiver_mempool).session();
  const ReceiveOutcome out = receiver.receive_block(sender.encode(s.m).msg);
  EXPECT_EQ(out.status, ReceiveStatus::kDecoded);
  EXPECT_EQ(out.block_ids.size(), 1u);
}

TEST(ReceiverEdges, ReceiverUnderstatesMempoolCount) {
  // The receiver claims a smaller mempool than it has: S gets a lower FPR
  // than needed, the IBLT absorbs extra false positives or Protocol 2 runs —
  // the protocol must still converge.
  util::Rng rng(3);
  chain::ScenarioSpec spec;
  spec.block_txns = 300;
  spec.extra_txns = 900;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  Sender sender(s.block, rng.next());
  ReceiveSession receiver = Receiver(s.receiver_mempool).session();
  const Relay relay = relay_block(sender, receiver, s.m / 2);  // lie: m/2
  EXPECT_EQ(relay.outcome.status, ReceiveStatus::kDecoded);
}

TEST(ReceiverEdges, SpamFilteredBlockRecoversViaProtocol2) {
  // §2.2: low-fee transactions the receiver refused to relay appear in the
  // block anyway; Protocol 2 ships them.
  util::Rng rng(4);
  int decoded = 0;
  for (int t = 0; t < 10; ++t) {
    chain::SpamScenarioSpec spec;
    spec.block_txns = 400;
    spec.extra_txns = 400;
    spec.low_fee_fraction = 0.08;
    const chain::Scenario s = chain::make_spam_scenario(spec, rng);
    ASSERT_LT(s.x, s.n);

    Sender sender(s.block, rng.next());
    ReceiveSession receiver = Receiver(s.receiver_mempool).session();
    const Relay relay = relay_block(sender, receiver, s.m);
    EXPECT_TRUE(relay.request.has_value());  // missing low-fee txns
    decoded += relay.outcome.status == ReceiveStatus::kDecoded ? 1 : 0;
  }
  EXPECT_GE(decoded, 9);
}

TEST(ReceiverEdges, HugeMempoolSmallBlock) {
  util::Rng rng(5);
  chain::ScenarioSpec spec;
  spec.block_txns = 50;
  spec.extra_txns = 20000;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  Sender sender(s.block, rng.next());
  ReceiveSession receiver = Receiver(s.receiver_mempool).session();
  const GrapheneBlockMsg msg = sender.encode(s.m).msg;
  const ReceiveOutcome out = receiver.receive_block(msg);
  EXPECT_EQ(out.status, ReceiveStatus::kDecoded);
  // Even with m = 400n the encoding stays compact.
  EXPECT_LT(msg.filter_s.serialized_size() + msg.iblt_i.serialized_size(), 2000u);
}

}  // namespace
}  // namespace graphene::core
