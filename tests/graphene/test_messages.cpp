#include "graphene/messages.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"

namespace graphene::core {
namespace {

chain::Transaction random_tx(util::Rng& rng) { return chain::make_random_transaction(rng); }

TEST(FullTxWire, SizeMatchesNominal) {
  util::Rng rng(1);
  chain::Transaction tx = random_tx(rng);
  tx.size_bytes = 250;
  util::ByteWriter w;
  write_full_tx(w, tx);
  EXPECT_EQ(w.size(), 250u);
  EXPECT_EQ(full_tx_wire_size(tx), 250u);
}

TEST(FullTxWire, TinyTransactionClampsToHeader) {
  util::Rng rng(2);
  chain::Transaction tx = random_tx(rng);
  tx.size_bytes = 10;  // smaller than id+length fields
  util::ByteWriter w;
  write_full_tx(w, tx);
  EXPECT_EQ(w.size(), 36u);
  EXPECT_EQ(full_tx_wire_size(tx), 36u);
}

TEST(FullTxWire, RoundTripPreservesIdAndSize) {
  util::Rng rng(3);
  chain::Transaction tx = random_tx(rng);
  util::ByteWriter w;
  write_full_tx(w, tx);
  util::ByteReader r{util::ByteView(w.bytes())};
  const chain::Transaction back = read_full_tx(r);
  EXPECT_EQ(back.id, tx.id);
  EXPECT_EQ(back.size_bytes, tx.size_bytes);
  EXPECT_TRUE(r.done());
}

TEST(GrapheneBlockMsg, RoundTrip) {
  util::Rng rng(4);
  GrapheneBlockMsg msg;
  msg.header.nonce = 777;
  msg.n = 1234;
  msg.shortid_salt = 0xabcdef;
  msg.filter_s = bloom::BloomFilter(100, 0.05, 9);
  for (int i = 0; i < 100; ++i) {
    const auto id = random_tx(rng).id;
    msg.filter_s.insert(util::ByteView(id.data(), id.size()));
  }
  msg.iblt_i = iblt::Iblt(iblt::IbltParams{4, 40}, 5);
  msg.iblt_i.insert(42);

  const util::Bytes wire = msg.serialize();
  util::ByteReader r{util::ByteView(wire)};
  const GrapheneBlockMsg back = GrapheneBlockMsg::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.header.nonce, 777u);
  EXPECT_EQ(back.n, 1234u);
  EXPECT_EQ(back.shortid_salt, 0xabcdefu);
  EXPECT_EQ(back.filter_s.bit_count(), msg.filter_s.bit_count());
  EXPECT_TRUE(back.iblt_i.subtract(msg.iblt_i).empty());
}

TEST(GrapheneRequestMsg, RoundTripIncludingFpr) {
  GrapheneRequestMsg req;
  req.z = 5000;
  req.b = 17;
  req.y_star = 23;
  req.fpr_r = 0.0375;
  req.reversed = true;
  req.filter = bloom::BloomFilter(10, 0.1, 3);

  const util::Bytes wire = req.serialize();
  util::ByteReader r{util::ByteView(wire)};
  const GrapheneRequestMsg back = GrapheneRequestMsg::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.z, 5000u);
  EXPECT_EQ(back.b, 17u);
  EXPECT_EQ(back.y_star, 23u);
  EXPECT_DOUBLE_EQ(back.fpr_r, 0.0375);
  EXPECT_TRUE(back.reversed);
}

TEST(GrapheneResponseMsg, RoundTripWithAndWithoutF) {
  util::Rng rng(5);
  GrapheneResponseMsg resp;
  resp.missing = {random_tx(rng), random_tx(rng)};
  resp.iblt_j = iblt::Iblt(iblt::IbltParams{3, 30}, 8);
  resp.iblt_j.insert(1);

  {
    const util::Bytes wire = resp.serialize();
    util::ByteReader r{util::ByteView(wire)};
    const GrapheneResponseMsg back = GrapheneResponseMsg::deserialize(r);
    EXPECT_TRUE(r.done());
    ASSERT_EQ(back.missing.size(), 2u);
    EXPECT_EQ(back.missing[0].id, resp.missing[0].id);
    EXPECT_FALSE(back.filter_f.has_value());
  }

  resp.filter_f = bloom::BloomFilter(50, 0.1, 4);
  {
    const util::Bytes wire = resp.serialize();
    util::ByteReader r{util::ByteView(wire)};
    const GrapheneResponseMsg back = GrapheneResponseMsg::deserialize(r);
    ASSERT_TRUE(back.filter_f.has_value());
    EXPECT_EQ(back.filter_f->bit_count(), resp.filter_f->bit_count());
  }
}

TEST(GrapheneResponseMsg, MissingTxBytesSumsWireSizes) {
  util::Rng rng(6);
  GrapheneResponseMsg resp;
  resp.missing = {random_tx(rng), random_tx(rng), random_tx(rng)};
  std::size_t expected = 0;
  for (const auto& tx : resp.missing) expected += full_tx_wire_size(tx);
  EXPECT_EQ(resp.missing_tx_bytes(), expected);
}

TEST(RepairMsgs, RoundTrip) {
  util::Rng rng(7);
  RepairRequestMsg req;
  req.short_ids = {1, 2, 0xffffffffffffffffULL};
  {
    const util::Bytes wire = req.serialize();
    util::ByteReader r{util::ByteView(wire)};
    EXPECT_EQ(RepairRequestMsg::deserialize(r).short_ids, req.short_ids);
  }
  RepairResponseMsg resp;
  resp.txns = {random_tx(rng)};
  {
    const util::Bytes wire = resp.serialize();
    util::ByteReader r{util::ByteView(wire)};
    const RepairResponseMsg back = RepairResponseMsg::deserialize(r);
    ASSERT_EQ(back.txns.size(), 1u);
    EXPECT_EQ(back.txns[0].id, resp.txns[0].id);
  }
}

TEST(Messages, TruncatedBufferThrows) {
  GrapheneRequestMsg req;
  req.filter = bloom::BloomFilter(10, 0.1, 3);
  util::Bytes wire = req.serialize();
  wire.resize(wire.size() - 1);
  util::ByteReader r{util::ByteView(wire)};
  EXPECT_THROW(GrapheneRequestMsg::deserialize(r), util::DeserializeError);
}

}  // namespace
}  // namespace graphene::core
