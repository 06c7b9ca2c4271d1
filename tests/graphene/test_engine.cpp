// The Graphene engine's rules, checked through both of its callers.
#include <gtest/gtest.h>

#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "reconcile/graphene_backend.hpp"
#include "sim/scenario.hpp"
#include "util/random.hpp"

namespace graphene::core {
namespace {

constexpr int kTrials = 20;

// A negative short ID in J ⊖ J′ that maps to no candidate cannot be removed
// from Z. The engine skips it and leaves the verdict to the caller's final
// check (the Merkle root, or the count and set checksum), which still
// certifies the result. Erasing a random key from J plants such a negative.
TEST(Engine, UnmappedNegativeInJStillDecodesAndVerifiesOnBothPaths) {
  util::Rng rng(0x6e6567);
  for (int t = 0; t < kTrials; ++t) {
    chain::ScenarioSpec spec;
    spec.block_txns = 400;
    spec.extra_txns = 200;
    spec.block_fraction_in_mempool = 0.8;
    const chain::Scenario s = chain::make_scenario(spec, rng);
    const std::uint64_t salt = rng.next();
    const std::uint64_t stray = rng.next();

    // Block relay.
    {
      const Sender sender(s.block, salt);
      ReceiveSession receiver(s.receiver_mempool);
      ASSERT_EQ(receiver.receive_block(sender.encode(s.m).msg).status,
                ReceiveStatus::kNeedsProtocol2);
      GrapheneResponseMsg resp = sender.serve(receiver.build_request());
      resp.iblt_j.erase(stray);
      ReceiveOutcome out = receiver.complete(resp);
      if (out.status == ReceiveStatus::kNeedsRepair) {
        out = receiver.complete_repair(sender.serve_repair(receiver.build_repair()));
      }
      ASSERT_EQ(out.status, ReceiveStatus::kDecoded) << "trial " << t;
      EXPECT_TRUE(out.merkle_ok);
      EXPECT_EQ(out.block_ids, s.block.tx_ids());
    }

    // Set reconciliation over the same ids.
    {
      reconcile::ItemSet host_items;
      for (const chain::TxId& id : s.block.tx_ids()) host_items.insert(id);
      reconcile::ItemSet client_items;
      for (const chain::TxId& id : s.receiver_mempool.ids()) client_items.insert(id);
      const auto host = reconcile::make_host_backend(host_items, salt, {});
      const auto client = reconcile::make_client_backend(client_items, {});
      ASSERT_EQ(client->absorb_wire(host->open(client_items.size())).status,
                reconcile::Outcome::Status::kNeedsRequest);
      reconcile::WireMsg answer = host->serve_wire(client->next_request());
      util::ByteReader reader{util::ByteView(answer.payload)};
      reconcile::Response resp = reconcile::Response::deserialize(reader);
      resp.correction.erase(stray);
      answer.payload = resp.serialize();
      reconcile::Outcome out = client->absorb_wire(answer);
      if (out.status == reconcile::Outcome::Status::kNeedsFetch) {
        out = client->absorb_wire(host->serve_wire(client->next_request()));
      }
      ASSERT_EQ(out.status, reconcile::Outcome::Status::kComplete) << "trial " << t;
      EXPECT_EQ(out.host_set, host_items);
    }
  }
}

}  // namespace
}  // namespace graphene::core
