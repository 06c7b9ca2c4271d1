#include "bloom/bloom_filter.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "chain/transaction.hpp"
#include "util/hash.hpp"
#include "util/hex.hpp"
#include "util/random.hpp"
#include "util/varint.hpp"

namespace graphene::bloom {
namespace {

using chain::TxId;

std::vector<TxId> random_ids(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<TxId> ids(count);
  for (auto& id : ids) id = chain::make_random_transaction(rng).id;
  return ids;
}

util::ByteView view(const TxId& id) { return util::ByteView(id.data(), id.size()); }

TEST(BloomFilter, NoFalseNegatives) {
  const auto ids = random_ids(5000, 1);
  BloomFilter f(ids.size(), 0.01, /*seed=*/42);
  for (const TxId& id : ids) f.insert(view(id));
  for (const TxId& id : ids) EXPECT_TRUE(f.contains(view(id)));
}

class BloomFprSweep : public ::testing::TestWithParam<double> {};

TEST_P(BloomFprSweep, EmpiricalFprNearTarget) {
  const double target = GetParam();
  const auto members = random_ids(4000, 2);
  const auto non_members = random_ids(40000, 3);
  BloomFilter f(members.size(), target, /*seed=*/7);
  for (const TxId& id : members) f.insert(view(id));

  std::size_t fps = 0;
  for (const TxId& id : non_members) fps += f.contains(view(id)) ? 1 : 0;
  const double observed = static_cast<double>(fps) / static_cast<double>(non_members.size());
  EXPECT_LT(observed, target * 1.8) << "target " << target;
  // Shouldn't be wildly over-built either (within ~3x of target).
  EXPECT_GT(observed, target / 3.0) << "target " << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, BloomFprSweep, ::testing::Values(0.1, 0.02, 0.005));

TEST(BloomFilter, DegenerateFilterMatchesEverything) {
  BloomFilter f(1000, 1.0);
  EXPECT_TRUE(f.matches_everything());
  EXPECT_EQ(f.bit_count(), 0u);
  for (const TxId& id : random_ids(100, 4)) EXPECT_TRUE(f.contains(view(id)));
}

TEST(BloomFilter, DefaultConstructedMatchesEverything) {
  const BloomFilter f;
  EXPECT_TRUE(f.matches_everything());
}

TEST(BloomFilter, SerializeRoundTrip) {
  const auto ids = random_ids(500, 5);
  BloomFilter f(ids.size(), 0.02, /*seed=*/99);
  for (const TxId& id : ids) f.insert(view(id));

  const util::Bytes wire = f.serialize();
  EXPECT_EQ(wire.size(), f.serialized_size());

  util::ByteReader r{util::ByteView(wire)};
  const BloomFilter g = BloomFilter::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(g.bit_count(), f.bit_count());
  EXPECT_EQ(g.hash_count(), f.hash_count());
  EXPECT_EQ(g.seed(), f.seed());
  for (const TxId& id : ids) EXPECT_TRUE(g.contains(view(id)));
  // Identical probe answers on non-members too.
  for (const TxId& id : random_ids(2000, 6)) {
    EXPECT_EQ(f.contains(view(id)), g.contains(view(id)));
  }
}

TEST(BloomFilter, DegenerateSerializeRoundTrip) {
  BloomFilter f(100, 1.0, 3);
  const util::Bytes wire = f.serialize();
  util::ByteReader r{util::ByteView(wire)};
  const BloomFilter g = BloomFilter::deserialize(r);
  EXPECT_TRUE(g.matches_everything());
}

TEST(BloomFilter, DeserializeRejectsZeroHashCount) {
  BloomFilter f(100, 0.01, 3);
  util::Bytes wire = f.serialize();
  // Hash-count byte sits right after the varint bit count.
  const std::size_t k_offset = util::varint_size(f.bit_count());
  wire[k_offset] = 0;
  util::ByteReader r{util::ByteView(wire)};
  EXPECT_THROW(BloomFilter::deserialize(r), util::DeserializeError);
}

TEST(BloomFilter, SeedsDecorrelateFalsePositives) {
  const auto members = random_ids(1000, 7);
  const auto probes = random_ids(20000, 8);
  BloomFilter f1(members.size(), 0.05, 1);
  BloomFilter f2(members.size(), 0.05, 2);
  for (const TxId& id : members) {
    f1.insert(view(id));
    f2.insert(view(id));
  }
  std::size_t both = 0, either = 0;
  for (const TxId& id : probes) {
    const bool a = f1.contains(view(id));
    const bool b = f2.contains(view(id));
    both += (a && b) ? 1 : 0;
    either += (a || b) ? 1 : 0;
  }
  // Independent filters: P(both) ≈ f² ≪ P(either).
  EXPECT_LT(both * 10, either + 10);
}

TEST(BloomFilter, RehashStrategyAlsoCorrect) {
  const auto ids = random_ids(1000, 9);
  BloomFilter f(ids.size(), 0.01, 11, HashStrategy::kRehash);
  for (const TxId& id : ids) f.insert(view(id));
  for (const TxId& id : ids) EXPECT_TRUE(f.contains(view(id)));
  std::size_t fps = 0;
  for (const TxId& id : random_ids(20000, 10)) fps += f.contains(view(id)) ? 1 : 0;
  EXPECT_LT(static_cast<double>(fps) / 20000.0, 0.02);
}

TEST(BloomFilter, RehashStrategySurvivesSerialization) {
  const auto ids = random_ids(100, 12);
  BloomFilter f(ids.size(), 0.01, 13, HashStrategy::kRehash);
  for (const TxId& id : ids) f.insert(view(id));
  const util::Bytes wire = f.serialize();
  util::ByteReader r{util::ByteView(wire)};
  const BloomFilter g = BloomFilter::deserialize(r);
  for (const TxId& id : ids) EXPECT_TRUE(g.contains(view(id)));
}

TEST(BloomFilter, HighHashCountFprNotInflated) {
  // Regression: plain double hashing inflated the FPR ~1.6x at k ≈ 13
  // (surfaced by the Fig. 13 workload: tiny blocks against a 60k mempool).
  // Enhanced double hashing must track the theoretical rate closely.
  const std::uint64_t n = 120;
  const double target = 10.0 / 59880.0;  // k ≈ 13
  util::Rng rng(99);
  std::uint64_t fps = 0;
  constexpr int kProbes = 400000;
  BloomFilter f(n, target, rng.next());
  ASSERT_GE(f.hash_count(), 10u);
  for (std::uint64_t i = 0; i < n; ++i) {
    const TxId id = chain::make_random_transaction(rng).id;
    f.insert(view(id));
  }
  for (int i = 0; i < kProbes; ++i) {
    const TxId id = chain::make_random_transaction(rng).id;
    fps += f.contains(view(id)) ? 1 : 0;
  }
  const double observed = static_cast<double>(fps) / kProbes;
  EXPECT_LT(observed, target * 1.35);
}

TEST(BloomFilter, SplitDigestProbesFollowProtocolMd) {
  // docs/PROTOCOL.md's probe rule, rebuilt with plain `%` and a byte-wise
  // word split: x = (w0 ^ mix64(seed)) mod bits, y = (w1 ^ w2) mod bits;
  // probe i sets bit x, then x = (x + y) mod bits, y = (y + i + 1) mod bits.
  // Bit p is bit p mod 8 of payload byte p / 8.
  const auto ids = random_ids(300, 16);
  for (const double fpr : {0.2, 0.01, 0.0002}) {
    const std::uint64_t seed = 0x5eedf00d;
    BloomFilter f(ids.size(), fpr, seed);
    for (const TxId& id : ids) f.insert(view(id));
    const std::uint64_t bits = f.bit_count();
    ASSERT_GT(bits, 0u);

    std::vector<std::uint8_t> want((bits + 7) / 8, 0);
    for (const TxId& id : ids) {
      std::uint64_t w[4] = {};
      for (std::size_t b = 0; b < 32; ++b) {
        w[b / 8] |= static_cast<std::uint64_t>(id[b]) << (8 * (b % 8));
      }
      std::uint64_t x = (w[0] ^ util::mix64(seed)) % bits;
      std::uint64_t y = (w[1] ^ w[2]) % bits;
      for (std::uint32_t i = 0; i < f.hash_count(); ++i) {
        want[x / 8] = static_cast<std::uint8_t>(want[x / 8] | (1u << (x % 8)));
        x = (x + y) % bits;
        y = (y + i + 1) % bits;
      }
    }
    const util::Bytes wire = f.serialize();
    const auto header = static_cast<std::ptrdiff_t>(util::varint_size(bits) + 1 + 8);
    EXPECT_EQ(util::Bytes(wire.begin() + header, wire.end()), want) << "fpr " << fpr;
  }
}

// --- wire-format pins and header validation ---------------------------------

/// The exact transaction stream the pinned wire fixtures below were captured
/// from: 40 ids drawn from Rng(12345).
std::vector<TxId> fixture_ids() {
  util::Rng rng(12345);
  std::vector<TxId> ids(40);
  for (auto& id : ids) id = chain::make_random_transaction(rng).id;
  return ids;
}

TEST(BloomFilter, GoldenWireBytesPinAllStrategies) {
  // Serialized bytes pin BOTH the wire header and every probe position; any
  // change to index derivation (hashing, reduction) or payload layout shows
  // up here as a diff. Captured from the seed implementation.
  const auto ids = fixture_ids();
  BloomFilter split(40, 0.02, 0xabcdef);
  BloomFilter rehash(40, 0.02, 0xabcdef, HashStrategy::kRehash);
  for (const TxId& id : ids) {
    split.insert(view(id));
    rehash.insert(view(id));
  }
  EXPECT_EQ(util::to_hex(split.serialize()),
            "fd460106efcdab00000000007c02dd1b70e8463c250da3316bbd88e128732a75ee2c1a"
            "01ffef744d8ce2c9be06cf36e253bbfbce38");
  EXPECT_EQ(util::to_hex(rehash.serialize()),
            "fd460186efcdab00000000002db3b2c1e577d1e345f24a75a3312a24effbe04a93de2a"
            "cec833863e5cb0aa750727c3f43b6e24d317");
}

TEST(BloomFilter, ByteC0StillParsesAsRehashK64) {
  // 0xc0 is the largest valid k byte: rehash with k = 64.
  util::ByteWriter w;
  util::write_varint(w, 512);
  w.u8(0xc0);
  w.u64(77);
  for (int i = 0; i < 64; ++i) w.u8(0);
  util::ByteReader reader(w.bytes());
  const BloomFilter f = BloomFilter::deserialize(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(f.strategy(), HashStrategy::kRehash);
  EXPECT_EQ(f.hash_count(), 64u);
}

TEST(BloomFilter, HashCountAbove64IsRejected) {
  // k lives in the low 7 bits of the k byte and must be 1..64, for both
  // strategies: every byte from 0x41 to 0x7f and from 0xc1 to 0xff fails.
  for (unsigned k_byte = 0; k_byte < 256; ++k_byte) {
    if ((k_byte & 0x7f) <= 64) continue;
    util::ByteWriter w;
    util::write_varint(w, 512);
    w.u8(static_cast<std::uint8_t>(k_byte));
    w.u64(77);
    for (int i = 0; i < 64; ++i) w.u8(0);
    util::ByteReader reader(w.bytes());
    EXPECT_THROW((void)BloomFilter::deserialize(reader), util::DeserializeError)
        << "k byte 0x" << std::hex << k_byte;
  }
}

TEST(BloomFilter, DegenerateRehashFallsBackToSplitHeader) {
  // FPR >= 1 yields the zero-bit filter, which probes nothing; it carries
  // the split-digest header (k byte 0x01) whatever strategy was asked for.
  const BloomFilter f(1000, 1.0, 5, HashStrategy::kRehash);
  EXPECT_TRUE(f.matches_everything());
  EXPECT_EQ(f.strategy(), HashStrategy::kSplitDigest);
  const util::Bytes wire = f.serialize();
  ASSERT_EQ(wire.size(), f.serialized_size());
  EXPECT_EQ(wire[util::varint_size(0)], 0x01);
  util::ByteReader reader(wire);
  const BloomFilter g = BloomFilter::deserialize(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_TRUE(g.matches_everything());
}

class BloomBatchParity : public ::testing::TestWithParam<HashStrategy> {};

TEST_P(BloomBatchParity, ContainsAllMatchesContains) {
  const auto members = random_ids(2500, 23);
  const auto probes = random_ids(5000, 24);
  BloomFilter f(members.size(), 0.015, /*seed=*/9, GetParam());
  for (const TxId& id : members) f.insert(view(id));

  std::vector<util::ByteView> views;
  for (const TxId& id : probes) views.push_back(view(id));
  for (const TxId& id : members) views.push_back(view(id));
  std::vector<std::uint8_t> out(views.size(), 0xff);
  contains_all(f, views.data(), views.size(), out.data());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(out[i], f.contains(views[i]) ? 1 : 0) << i;
    hits += out[i];
  }
  // Every member hits; some, not all, non-members do.
  EXPECT_GT(hits, members.size());
  EXPECT_LT(hits, views.size());
}

INSTANTIATE_TEST_SUITE_P(Strategies, BloomBatchParity,
                         ::testing::Values(HashStrategy::kSplitDigest,
                                           HashStrategy::kRehash));

TEST(BloomFilterConcurrent, ContainsIsRaceFreeAcrossThreads) {
  // contains() and contains_all() only read the bit array, so concurrent
  // readers are safe. Hammer one filter from several threads; TSan (the CI
  // stress leg matches "Concurrent") proves race-freedom, and every thread
  // must see exactly the answers of a serial pass.
  const auto members = random_ids(512, 26);
  const auto probes = random_ids(2048, 27);
  BloomFilter f(members.size(), 0.01, 11);
  for (const TxId& id : members) f.insert(view(id));
  std::vector<util::ByteView> views;
  for (const TxId& id : probes) views.push_back(view(id));
  std::vector<std::uint8_t> serial(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) serial[i] = f.contains(views[i]) ? 1 : 0;

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint8_t> out(views.size());
      for (int round = 0; round < kRounds; ++round) {
        if ((t + round) % 2 == 0) {
          for (std::size_t i = 0; i < views.size(); ++i) out[i] = f.contains(views[i]) ? 1 : 0;
        } else {
          contains_all(f, views.data(), views.size(), out.data());
        }
        if (out != serial) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << t;
}

}  // namespace
}  // namespace graphene::bloom
