// Scatter-serialization pins.
//
// BlockHeader, BloomFilter and Iblt nest inside other wire types through
// serialize_into(), which appends to the enclosing message's writer; the
// daemon frames each payload built by serialize() with
// encode_frame_into(), straight onto its send queue. These tests hold both
// to the plain path: serialize_into() into a shared writer is
// byte-identical to serialize()-and-concatenate for every nested type, and
// encode_frame_into() produces exactly encode_frame()'s bytes, including
// mid-buffer appends.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "chain/block.hpp"
#include "daemon/wire.hpp"
#include "iblt/iblt.hpp"
#include "net/frame.hpp"
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
  chain::BlockHeader header;
  header.version = 2;
  header.prev_hash.fill(0xaa);
  header.merkle_root.fill(0xbb);
  header.time = 1234;
  header.bits = 0x1d00ffff;
  header.nonce = 99;
  expect_scatter_identical(header);
  expect_scatter_identical(make_bloom(bloom::HashStrategy::kSplitDigest));
  expect_scatter_identical(make_bloom(bloom::HashStrategy::kRehash));
  expect_scatter_identical(make_iblt());
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
