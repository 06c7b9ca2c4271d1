// Table-driven malformed-input suite over every wire deserializer.
//
// The contract tested here is the one the fuzz harnesses (fuzz/) enforce
// continuously: for any byte string, deserialize() either returns a value or
// throws DeserializeError / invalid_argument — never crashes, never throws
// anything else, never reads out of bounds. Where the fuzzers explore
// randomly, this suite is exhaustive in two cheap dimensions: every prefix
// length of a valid message (truncation mid-field, mid-varint, mid-payload)
// and every single-byte overwrite with the length-field extremes 0x00/0xff.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "chain/transaction.hpp"
#include "graphene/messages.hpp"
#include "iblt/iblt.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"
#include "reconcile/set_reconciler.hpp"
#include "util/bytes.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/varint.hpp"

namespace graphene {
namespace {

using ParseFn = void (*)(util::ByteReader&);

struct WireCase {
  std::string name;
  util::Bytes wire;
  ParseFn parse;
};

template <typename T>
ParseFn parser() {
  return +[](util::ByteReader& r) { (void)T::deserialize(r); };
}

/// Runs `parse` over `bytes`, asserting the exception contract.
void expect_contract(const WireCase& c, const util::Bytes& bytes, const std::string& what) {
  util::ByteReader r{util::ByteView(bytes)};
  try {
    c.parse(r);
  } catch (const util::DeserializeError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    FAIL() << c.name << " " << what << ": escaped " << typeid(e).name() << ": " << e.what();
  }
}

std::vector<WireCase> make_cases() {
  util::Rng rng(0xbadbeef);
  std::vector<WireCase> cases;

  const auto digest32 = [&rng] {
    reconcile::ItemDigest d;
    for (auto& b : d) b = static_cast<std::uint8_t>(rng.next());
    return d;
  };

  {
    bloom::BloomFilter f(60, 0.02, rng.next());
    for (int i = 0; i < 60; ++i) {
      const auto id = chain::make_random_transaction(rng).id;
      f.insert(util::ByteView(id.data(), id.size()));
    }
    cases.push_back({"BloomFilter", f.serialize(), parser<bloom::BloomFilter>()});
  }
  {
    iblt::Iblt t(iblt::IbltParams{4, 40}, rng.next());
    for (int i = 0; i < 12; ++i) t.insert(rng.next());
    cases.push_back({"Iblt", t.serialize(), parser<iblt::Iblt>()});
  }

  {
    core::GrapheneBlockMsg msg;
    msg.n = 40;
    msg.shortid_salt = rng.next();
    msg.filter_s = bloom::BloomFilter(40, 0.01, rng.next());
    for (int i = 0; i < 40; ++i) {
      const auto id = chain::make_random_transaction(rng).id;
      msg.filter_s.insert(util::ByteView(id.data(), id.size()));
    }
    msg.iblt_i = iblt::Iblt(iblt::IbltParams{4, 24}, rng.next());
    for (int i = 0; i < 6; ++i) msg.iblt_i.insert(rng.next());
    cases.push_back({"GrapheneBlockMsg", msg.serialize(), parser<core::GrapheneBlockMsg>()});
  }
  {
    core::GrapheneRequestMsg msg;
    msg.z = 70;
    msg.b = 5;
    msg.y_star = 9;
    msg.fpr_r = 0.04;
    msg.reversed = true;
    msg.filter = bloom::BloomFilter(70, 0.04, rng.next());
    cases.push_back({"GrapheneRequestMsg", msg.serialize(), parser<core::GrapheneRequestMsg>()});
  }
  {
    core::GrapheneResponseMsg msg;
    for (int i = 0; i < 3; ++i) msg.missing.push_back(chain::make_random_transaction(rng));
    msg.iblt_j = iblt::Iblt(iblt::IbltParams{4, 16}, rng.next());
    msg.filter_f = bloom::BloomFilter(30, 0.1, rng.next());
    cases.push_back({"GrapheneResponseMsg", msg.serialize(), parser<core::GrapheneResponseMsg>()});
  }
  {
    core::RepairRequestMsg msg;
    for (int i = 0; i < 7; ++i) msg.short_ids.push_back(rng.next());
    cases.push_back({"RepairRequestMsg", msg.serialize(), parser<core::RepairRequestMsg>()});
  }
  {
    core::RepairResponseMsg msg;
    for (int i = 0; i < 4; ++i) msg.txns.push_back(chain::make_random_transaction(rng));
    cases.push_back({"RepairResponseMsg", msg.serialize(), parser<core::RepairResponseMsg>()});
  }

  {
    reconcile::Offer msg;
    msg.count = 25;
    msg.salt = rng.next();
    msg.set_checksum = rng.next();
    msg.filter = bloom::BloomFilter(25, 0.02, rng.next());
    msg.correction = iblt::Iblt(iblt::IbltParams{4, 20}, rng.next());
    cases.push_back({"reconcile::Offer", msg.serialize(), parser<reconcile::Offer>()});
  }
  {
    reconcile::Response msg;
    msg.missing = {digest32(), digest32()};
    msg.correction = iblt::Iblt(iblt::IbltParams{4, 12}, rng.next());
    msg.compensation = bloom::BloomFilter(20, 0.1, rng.next());
    cases.push_back({"reconcile::Response", msg.serialize(), parser<reconcile::Response>()});
  }
  {
    reconcile::FetchResponse msg;
    msg.items = {digest32(), digest32(), digest32()};
    cases.push_back({"reconcile::FetchResponse", msg.serialize(),
                     parser<reconcile::FetchResponse>()});
  }
  {
    reconcile::RatelessChunk msg;
    msg.start = 3;
    msg.host_count = 90;
    msg.salt = rng.next();
    msg.set_checksum = rng.next();
    iblt::RatelessEncoder enc(msg.salt);
    for (int i = 0; i < 90; ++i) {
      const auto d = digest32();
      enc.add_item(d);
    }
    for (int i = 0; i < 8; ++i) msg.symbols.push_back(enc.next_symbol());
    cases.push_back({"reconcile::RatelessChunk", msg.serialize(),
                     parser<reconcile::RatelessChunk>()});
  }
  {
    // Above 252 items the first symbols' counts take the three-byte varint
    // form, so truncations and overwrites land inside a wide count too.
    reconcile::RatelessChunk msg;
    msg.host_count = 300;
    msg.salt = rng.next();
    msg.set_checksum = rng.next();
    iblt::RatelessEncoder enc(msg.salt);
    for (int i = 0; i < 300; ++i) enc.add_item(digest32());
    for (int i = 0; i < 4; ++i) msg.symbols.push_back(enc.next_symbol());
    cases.push_back({"reconcile::RatelessChunk wide counts", msg.serialize(),
                     parser<reconcile::RatelessChunk>()});
  }
  {
    reconcile::RatelessNeed msg;
    msg.next_index = 17;
    msg.count = 64;
    cases.push_back({"reconcile::RatelessNeed", msg.serialize(),
                     parser<reconcile::RatelessNeed>()});
  }

  return cases;
}

TEST(Malformed, FullWireParsesAndConsumesExactly) {
  for (const WireCase& c : make_cases()) {
    util::ByteReader r{util::ByteView(c.wire)};
    ASSERT_NO_THROW(c.parse(r)) << c.name;
    EXPECT_TRUE(r.done()) << c.name << ": " << r.remaining() << " trailing bytes unread";
  }
}

TEST(Malformed, EveryTruncationHonorsContract) {
  for (const WireCase& c : make_cases()) {
    ASSERT_FALSE(c.wire.empty()) << c.name;
    for (std::size_t len = 0; len < c.wire.size(); ++len) {
      util::Bytes cut(c.wire.begin(), c.wire.begin() + static_cast<std::ptrdiff_t>(len));
      expect_contract(c, cut, "truncated to " + std::to_string(len));
    }
  }
}

TEST(Malformed, EveryByteForcedToExtremesHonorsContract) {
  // 0xff maximizes varint length fields (and makes them 9-byte encodings
  // when hit at a field start); 0x00 zeroes counts and flags. Both extremes
  // at every offset sweep the interesting misparse space deterministically.
  for (const WireCase& c : make_cases()) {
    for (const std::uint8_t forced : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
      for (std::size_t pos = 0; pos < c.wire.size(); ++pos) {
        if (c.wire[pos] == forced) continue;
        util::Bytes mutated = c.wire;
        mutated[pos] = forced;
        expect_contract(c, mutated,
                        "byte " + std::to_string(pos) + " forced to " + std::to_string(forced));
      }
    }
  }
}

TEST(Malformed, RandomBitFlipsHonorContract) {
  util::Rng rng(0xf1a9);
  for (const WireCase& c : make_cases()) {
    for (int trial = 0; trial < 300; ++trial) {
      util::Bytes mutated = c.wire;
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      expect_contract(c, mutated, "bit flip at " + std::to_string(pos));
    }
  }
}

TEST(Malformed, EmptyAndJunkInputsHonorContract) {
  for (const WireCase& c : make_cases()) {
    expect_contract(c, {}, "empty input");
    expect_contract(c, util::Bytes(64, 0x00), "64 zero bytes");
    expect_contract(c, util::Bytes(64, 0xff), "64 0xff bytes");
    // A canonical 9-byte varint announcing 2^64-1 of whatever comes first.
    expect_contract(c, util::Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
                    "maximal varint");
  }
}

// A RatelessChunk symbol's count is a CompactSize in [0, host_count]. One
// above the bound, a negative count written as a u64, or a small count in a
// wider encoding than it needs is refused, not read.
TEST(Malformed, RatelessChunkCountOffBoundOrNonCanonicalIsRejected) {
  constexpr std::uint64_t kHostCount = 90;
  const auto chunk_with_count = [](const util::Bytes& count) {
    util::ByteWriter w;
    util::write_varint(w, 0);           // start
    util::write_varint(w, kHostCount);  // host_count
    w.u64(0x5a17);                      // salt
    w.u64(0);                           // set_checksum
    util::write_varint(w, 1);           // one symbol
    w.raw(util::ByteView(count));
    w.u64(0);                           // check
    w.raw(util::ByteView(util::Bytes(32, 0x11)));  // sum
    return w.take();
  };
  const auto parse = [](const util::Bytes& wire) {
    util::ByteReader r{util::ByteView(wire)};
    return reconcile::RatelessChunk::deserialize(r);
  };
  EXPECT_EQ(parse(chunk_with_count({0x05})).symbols.at(0).count, 5);
  EXPECT_EQ(parse(chunk_with_count({kHostCount})).symbols.at(0).count, 90);
  const util::Bytes bad_counts[] = {
      {kHostCount + 1},                                      // above host_count
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},  // -1 as a u64
      {0xfd, 0x05, 0x00},                                    // 5 in three bytes
      {0xfe, 0x05, 0x00, 0x00, 0x00},                        // 5 in five bytes
  };
  for (const util::Bytes& count : bad_counts) {
    EXPECT_THROW((void)parse(chunk_with_count(count)), util::DeserializeError)
        << util::to_hex(util::ByteView(count));
  }
}

}  // namespace
}  // namespace graphene
