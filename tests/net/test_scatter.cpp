// Scatter-serialization pins.
//
// Wire types nest inside one another through serialize_into(), which
// appends to a shared writer; the daemon frames each payload built by
// serialize() with encode_frame_into(), straight onto its send queue. These
// tests hold both to the plain path: serialize_into() into a shared writer
// is byte-identical to serialize()-and-concatenate for every wire type, and
// encode_frame_into() produces exactly encode_frame()'s bytes, including
// mid-buffer appends.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "chain/block.hpp"
#include "daemon/wire.hpp"
#include "graphene/messages.hpp"
#include "iblt/iblt.hpp"
#include "iblt/strata_estimator.hpp"
#include "net/frame.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace graphene {
namespace {

util::ByteView bv(const util::Bytes& b) { return util::ByteView(b); }

bloom::BloomFilter make_bloom(bloom::HashStrategy strategy) {
  bloom::BloomFilter f(40, 0.02, 7, strategy);
  util::Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    util::Bytes id(32);
    rng.fill(id);
    f.insert(bv(id));
  }
  return f;
}

iblt::Iblt make_iblt() {
  iblt::Iblt t(iblt::IbltParams{4, 24}, 9);
  for (std::uint64_t k = 1; k <= 30; ++k) t.insert(k * 0x9e3779b9ULL);
  return t;
}

chain::Transaction make_tx(std::uint8_t tag, std::uint32_t size) {
  chain::Transaction tx;
  tx.id.fill(tag);
  tx.size_bytes = size;
  return tx;
}

core::GrapheneBlockMsg make_block_msg() {
  core::GrapheneBlockMsg msg;
  msg.header.version = 2;
  msg.header.prev_hash.fill(0xaa);
  msg.header.merkle_root.fill(0xbb);
  msg.header.time = 1234;
  msg.header.bits = 0x1d00ffff;
  msg.header.nonce = 99;
  msg.n = 40;
  msg.shortid_salt = 0xfeed;
  msg.filter_s = make_bloom(bloom::HashStrategy::kSplitDigest);
  msg.iblt_i = make_iblt();
  return msg;
}

core::GrapheneResponseMsg make_response_msg() {
  core::GrapheneResponseMsg msg;
  msg.missing.push_back(make_tx(0x01, 250));
  msg.missing.push_back(make_tx(0x02, 10));  // size below fixed overhead
  msg.iblt_j = make_iblt();
  msg.filter_f = make_bloom(bloom::HashStrategy::kRehash);
  return msg;
}

reconcile::RatelessChunk make_chunk() {
  reconcile::RatelessChunk c;
  c.start = 3;
  c.host_count = 50;
  c.salt = 0x5a17;
  c.set_checksum = 0xc4ec;
  for (int i = 0; i < 4; ++i) {
    iblt::CodedSymbol s;
    s.count = i - 2;
    s.check = static_cast<std::uint64_t>(i) * 0x1111;
    s.sum.fill(static_cast<std::uint8_t>(i));
    c.symbols.push_back(s);
  }
  return c;
}

template <typename T>
void expect_scatter_identical(const T& value) {
  // Seed the writer with a nonzero prefix so offset-sensitive bugs (absolute
  // positions leaking into the scatter path) can't hide at offset zero.
  util::ByteWriter w;
  w.u32(0xdeadbeef);
  value.serialize_into(w);
  const util::Bytes got = w.take();

  util::ByteWriter prefix;
  prefix.u32(0xdeadbeef);
  util::Bytes want = prefix.take();
  const util::Bytes alone = value.serialize();
  want.insert(want.end(), alone.begin(), alone.end());
  EXPECT_EQ(got, want);
}

TEST(ZeroCopyWrite, SerializeIntoMatchesSerializeForEveryType) {
  expect_scatter_identical(make_bloom(bloom::HashStrategy::kSplitDigest));
  expect_scatter_identical(make_bloom(bloom::HashStrategy::kRehash));
  expect_scatter_identical(make_iblt());
  {
    iblt::StrataEstimator est(77);
    expect_scatter_identical(est);
  }
  expect_scatter_identical(make_block_msg());
  {
    core::GrapheneRequestMsg req;
    req.z = 12;
    req.b = 3;
    req.y_star = 4;
    req.fpr_r = 0.125;
    req.reversed = true;
    req.filter_r = make_bloom(bloom::HashStrategy::kRehash);
    expect_scatter_identical(req);
  }
  expect_scatter_identical(make_response_msg());
  {
    core::RepairRequestMsg req;
    req.short_ids = {1, 2, 3};
    expect_scatter_identical(req);
    core::RepairResponseMsg resp;
    resp.txns.push_back(make_tx(0x04, 80));
    expect_scatter_identical(resp);
  }
  {
    reconcile::Offer offer;
    offer.count = 50;
    offer.salt = 1;
    offer.set_checksum = 2;
    offer.filter = make_bloom(bloom::HashStrategy::kSplitDigest);
    offer.correction = make_iblt();
    expect_scatter_identical(offer);

    reconcile::Request req;
    req.candidate_count = 9;
    req.b = 2;
    req.y_star = 3;
    req.fpr_r = 0.5;
    req.filter = make_bloom(bloom::HashStrategy::kRehash);
    expect_scatter_identical(req);

    reconcile::Response resp;
    reconcile::ItemDigest d{};
    d.fill(0x44);
    resp.missing.push_back(d);
    resp.correction = make_iblt();
    resp.compensation = make_bloom(bloom::HashStrategy::kSplitDigest);
    expect_scatter_identical(resp);

    reconcile::FetchRequest freq;
    freq.short_ids = {7, 8};
    expect_scatter_identical(freq);

    reconcile::FetchResponse fresp;
    fresp.items.push_back(d);
    expect_scatter_identical(fresp);
  }
  expect_scatter_identical(make_chunk());
  {
    reconcile::RatelessNeed need;
    need.next_index = 40;
    need.count = 8;
    expect_scatter_identical(need);
  }
  {
    daemon::HelloMsg hello;
    hello.version = 1;
    hello.backend = 1;
    hello.item_count = 5000;
    expect_scatter_identical(hello);
    daemon::ByeMsg bye;
    bye.ok = 1;
    bye.rounds = 3;
    expect_scatter_identical(bye);
    daemon::ErrorMsg err;
    err.code = daemon::ErrorCode::kLimit;
    err.detail = "cap exceeded";
    expect_scatter_identical(err);
  }
}

TEST(ZeroCopyWrite, EncodeFrameIntoAppendsInPlace) {
  net::Message a;
  a.type = net::MessageType::kDaemonHello;
  a.payload = daemon::HelloMsg{1, 0, 10}.serialize();
  net::Message b;
  b.type = net::MessageType::kDaemonBye;
  b.payload = daemon::ByeMsg{1, 2}.serialize();

  util::Bytes queue;
  net::encode_frame_into(queue, a);
  net::encode_frame_into(queue, b);

  util::Bytes want = net::encode_frame(a);
  const util::Bytes second = net::encode_frame(b);
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(queue, want);
}

TEST(ZeroCopyWrite, ByteWriterAdoptAndTake) {
  util::ByteWriter w;
  w.u32(0xa0b0c0d0);
  w.u64(0x1122334455667788ULL);
  util::Bytes first = w.take();

  // Adopt-and-take must preserve the existing prefix.
  util::ByteWriter adopted(std::move(first));
  adopted.u8(0x5a);
  const util::Bytes out = adopted.take();
  ASSERT_EQ(out.size(), 13u);
  util::ByteReader r(bv(out));
  EXPECT_EQ(r.u32(), 0xa0b0c0d0);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.u8(), 0x5a);
}

}  // namespace
}  // namespace graphene
