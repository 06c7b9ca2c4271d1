// Rateless IBLT primitives (arXiv 2402.02668): index-sequence mapper, the
// bucket queue that schedules it, streaming encoder, incremental peeling
// decoder, and the hostile-stream termination defenses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "iblt/coded_symbol.hpp"
#include "testkit/stat_gate.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace graphene::iblt {
namespace {

Digest32 random_digest(util::Rng& rng) {
  Digest32 d;
  for (std::size_t i = 0; i < d.size(); i += 8) {
    const std::uint64_t w = rng.next();
    for (std::size_t b = 0; b < 8; ++b) d[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
  return d;
}

std::vector<Digest32> random_digests(std::size_t count, util::Rng& rng) {
  std::vector<Digest32> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(random_digest(rng));
  return out;
}

TEST(IndexMapper, StartsAtZeroAndStrictlyIncreases) {
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    IndexMapper mapper(rng.next());
    EXPECT_EQ(mapper.current(), 0u);  // every item participates in symbol 0
    std::uint64_t prev = 0;
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t next = mapper.next();
      EXPECT_GT(next, prev);
      prev = next;
    }
  }
}

TEST(IndexMapper, DeterministicPerSeed) {
  // 42|1 == 43|1: the mapper forces seeds odd, so pick c two apart.
  IndexMapper a(42), b(42), c(45);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(IndexMapper, ParticipationDensityDecaysLogarithmically) {
  // An item should hit ~2·ln(M) of the first M indices (E[log gap growth]
  // = 1/2). Pin a generous band so a density regression (every index, or a
  // constant number of indices) fails loudly.
  util::Rng rng(7);
  const std::uint64_t kM = 1 << 16;
  double total_hits = 0;
  const int kItems = 64;
  for (int i = 0; i < kItems; ++i) {
    IndexMapper mapper(rng.next());
    std::uint64_t hits = 0;
    for (std::uint64_t idx = mapper.current(); idx < kM; idx = mapper.next()) ++hits;
    total_hits += static_cast<double>(hits);
  }
  const double mean = total_hits / kItems;
  const double ln_m = std::log(static_cast<double>(kM));
  EXPECT_GT(mean, 1.0 * ln_m);
  EXPECT_LT(mean, 4.0 * ln_m);
}

// --- IndexQueue -------------------------------------------------------------

/// The next key of `id` after it pops at `index` in a random monotone
/// workload: usually a multiplicative step like the mapper's, sometimes the
/// very next index, and now and then a key far past any horizon reached.
std::uint64_t workload_next_key(std::uint64_t trial, std::uint32_t id, std::uint64_t index) {
  const std::uint64_t r =
      util::mix64(trial * 0x9e3779b97f4a7c15ULL ^ (std::uint64_t{id} << 32) ^ index);
  switch (r % 8) {
    case 0:
      return index + 1;
    case 1:
      return (std::uint64_t{1} << 40) + (r >> 24);
    default:
      return index + 1 + (r >> 32) % (index + 2);
  }
}

TEST(IndexQueue, PopsTheSameMultisetAsAHeapAtEveryIndex) {
  using Entry = std::pair<std::uint64_t, std::uint32_t>;
  util::Rng rng(12);
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    IndexQueue queue;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    const auto items = static_cast<std::uint32_t>(1 + rng.below(400));
    for (std::uint32_t id = 0; id < items; ++id) {
      const std::uint64_t key = rng.below(8) == 0 ? rng.below(1u << 20) : rng.below(64);
      queue.push(id, key);
      heap.emplace(key, id);
    }
    const std::uint64_t indices = 1 + rng.below(3000);
    for (std::uint64_t index = 0; index < indices; ++index) {
      std::vector<std::uint32_t> expected;
      while (!heap.empty() && heap.top().first == index) {
        const std::uint32_t id = heap.top().second;
        heap.pop();
        expected.push_back(id);
        heap.emplace(workload_next_key(trial, id, index), id);
      }
      std::vector<std::uint32_t> popped;
      queue.drain(index, [&](std::uint32_t id) {
        popped.push_back(id);
        return workload_next_key(trial, id, index);
      });
      std::sort(expected.begin(), expected.end());
      std::sort(popped.begin(), popped.end());
      ASSERT_EQ(popped, expected) << "trial " << trial << " index " << index;
      // Buckets cover the drained indices and at most as many again.
      ASSERT_GT(queue.bucket_count(), index);
      ASSERT_LE(queue.bucket_count(), std::max<std::uint64_t>(1, 2 * index));
    }
    // Whatever is queued at or past the horizon waits on the overflow lists.
    std::size_t past_horizon = 0;
    for (; !heap.empty(); heap.pop()) {
      if (heap.top().first >= queue.bucket_count()) ++past_horizon;
    }
    EXPECT_EQ(queue.overflow_size(), past_horizon) << "trial " << trial;
  }
}

TEST(IndexQueue, FarKeyWaitsOnOverflowWhileBucketsTrackTheHorizon) {
  constexpr std::uint64_t kFar = std::uint64_t{1} << 40;
  constexpr std::uint64_t kLater = 5000;
  IndexQueue queue;
  queue.push(0, kFar);    // never due within this stream
  queue.push(1, kLater);  // due once, past the first horizons, then far away
  bool later_popped = false;
  for (std::uint64_t index = 0; index < 6000; ++index) {
    queue.drain(index, [&](std::uint32_t id) {
      EXPECT_EQ(id, 1u);
      EXPECT_EQ(index, kLater);
      later_popped = true;
      return kFar;
    });
    ASSERT_LE(queue.bucket_count(), std::max<std::uint64_t>(1, 2 * index));
    // Id 1 leaves the overflow lists when the horizon doubles past kLater and
    // goes back once it pops; id 0 never leaves.
    const bool later_waiting = later_popped || queue.bucket_count() <= kLater;
    ASSERT_EQ(queue.overflow_size(), later_waiting ? 2u : 1u) << "index " << index;
  }
  EXPECT_TRUE(later_popped);
  EXPECT_EQ(queue.bucket_count(), 8192u);
}

TEST(CodedSymbol, ApplyIsSelfInverse) {
  util::Rng rng(2);
  const Digest32 d = random_digest(rng);
  const std::uint64_t chk = coded_symbol_check(d, 99);
  CodedSymbol cell;
  cell.apply(d, chk, +1);
  EXPECT_FALSE(cell.is_zero());
  EXPECT_EQ(cell.count, 1);
  cell.apply(d, chk, -1);
  EXPECT_TRUE(cell.is_zero());
}

// is_zero folds the digest as 64-bit words: a non-zero value anywhere, the
// last sum word included, must count.
TEST(CodedSymbol, IsZeroSeesEveryField) {
  EXPECT_TRUE(CodedSymbol{}.is_zero());
  for (std::size_t i = 0; i < Digest32{}.size(); ++i) {
    CodedSymbol cell;
    cell.sum[i] = 0x80;
    EXPECT_FALSE(cell.is_zero()) << "sum byte " << i;
  }
  CodedSymbol checked;
  checked.check = 1;
  EXPECT_FALSE(checked.is_zero());
  CodedSymbol counted;
  counted.count = -1;
  EXPECT_FALSE(counted.is_zero());
}

TEST(RatelessEncoder, StreamIsDeterministicAndChecksumIsXor) {
  util::Rng rng(3);
  const auto items = random_digests(100, rng);
  RatelessEncoder a(0x5a17), b(0x5a17);
  std::uint64_t expected_check = 0;
  for (const Digest32& d : items) {
    a.add_item(d);
    b.add_item(d);
    expected_check ^= coded_symbol_check(d, 0x5a17);
  }
  EXPECT_EQ(a.set_checksum(), expected_check);
  for (int i = 0; i < 300; ++i) {
    const CodedSymbol sa = a.next_symbol();
    const CodedSymbol sb = b.next_symbol();
    EXPECT_EQ(sa.sum, sb.sum);
    EXPECT_EQ(sa.check, sb.check);
    EXPECT_EQ(sa.count, sb.count);
  }
  EXPECT_EQ(a.produced(), 300u);
}

TEST(RatelessEncoder, SymbolZeroCoversEveryItem) {
  util::Rng rng(4);
  const auto items = random_digests(50, rng);
  RatelessEncoder enc(1);
  CodedSymbol expected;
  for (const Digest32& d : items) {
    enc.add_item(d);
    expected.apply(d, coded_symbol_check(d, 1), +1);
  }
  const CodedSymbol first = enc.next_symbol();
  EXPECT_EQ(first.count, static_cast<std::int64_t>(items.size()));
  EXPECT_EQ(first.sum, expected.sum);
  EXPECT_EQ(first.check, expected.check);
}

TEST(RatelessEncoder, StreamMatchesEachItemsMapperWalk) {
  // Queue-free reference: walk every item's index sequence and fold it into
  // each symbol it visits.
  util::Rng rng(13);
  const auto items = random_digests(300, rng);
  constexpr std::uint64_t kSymbols = 700;
  RatelessEncoder enc(0x77);
  std::vector<CodedSymbol> expected(kSymbols);
  for (const Digest32& d : items) {
    enc.add_item(d);
    IndexMapper mapper(coded_symbol_map_seed(d, 0x77));
    for (std::uint64_t at = mapper.current(); at < kSymbols; at = mapper.next()) {
      expected[at].apply(d, coded_symbol_check(d, 0x77), +1);
    }
  }
  for (std::uint64_t i = 0; i < kSymbols; ++i) {
    const CodedSymbol got = enc.next_symbol();
    ASSERT_EQ(got.sum, expected[i].sum) << "symbol " << i;
    ASSERT_EQ(got.check, expected[i].check) << "symbol " << i;
    ASSERT_EQ(got.count, expected[i].count) << "symbol " << i;
  }
}

/// Streams host symbols into a decoder seeded with the client set until it
/// decodes; returns the symbols consumed (0 = gave up after `cap`).
std::uint64_t decode_stream(const std::vector<Digest32>& host,
                            const std::vector<Digest32>& client, std::uint64_t salt,
                            RatelessDecoder& dec, std::uint64_t cap = 100000) {
  RatelessEncoder enc(salt);
  for (const Digest32& d : host) enc.add_item(d);
  for (const Digest32& d : client) dec.add_local(d);
  for (std::uint64_t i = 0; i < cap; ++i) {
    dec.add_symbol(enc.next_symbol());
    if (dec.decoded()) return dec.received();
    if (dec.malformed()) return 0;
  }
  return 0;
}

TEST(RatelessDecoder, RecoversSymmetricDifferenceExactly) {
  util::Rng rng(5);
  for (const std::size_t d_host : {1u, 5u, 30u}) {
    for (const std::size_t d_client : {0u, 3u, 20u}) {
      const auto shared = random_digests(200, rng);
      const auto host_only = random_digests(d_host, rng);
      const auto client_only = random_digests(d_client, rng);
      std::vector<Digest32> host = shared, client = shared;
      host.insert(host.end(), host_only.begin(), host_only.end());
      client.insert(client.end(), client_only.begin(), client_only.end());

      RatelessDecoder dec(0xabcdef);
      const std::uint64_t used = decode_stream(host, client, 0xabcdef, dec);
      ASSERT_GT(used, 0u) << "d_host=" << d_host << " d_client=" << d_client;

      const std::set<Digest32> pos(dec.positives().begin(), dec.positives().end());
      const std::set<Digest32> neg(dec.negatives().begin(), dec.negatives().end());
      EXPECT_EQ(pos, std::set<Digest32>(host_only.begin(), host_only.end()));
      EXPECT_EQ(neg, std::set<Digest32>(client_only.begin(), client_only.end()));
    }
  }
}

TEST(RatelessDecoder, IdenticalSetsDecodeWithOneSymbol) {
  util::Rng rng(6);
  const auto items = random_digests(500, rng);
  RatelessDecoder dec(77);
  EXPECT_EQ(decode_stream(items, items, 77, dec), 1u);
  EXPECT_TRUE(dec.positives().empty());
  EXPECT_TRUE(dec.negatives().empty());
}

TEST(RatelessDecoder, LargeDifferenceDecodesWithinTwoXOverhead) {
  util::Rng rng(8);
  const auto host = random_digests(600, rng);
  const auto client = random_digests(100, rng);  // disjoint: d = 700
  RatelessDecoder dec(123);
  const std::uint64_t used = decode_stream(host, client, 123, dec, 5000);
  ASSERT_GT(used, 0u);
  EXPECT_LT(used, 2u * 700u);
}

TEST(RatelessDecoder, GarbageStreamTerminatesViaBudgetNotHang) {
  // A stream of random cells has no consistent peeling order: the decoder
  // must end in malformed() (work budget / double-peel defense) or simply
  // never decode — but each add_symbol must do bounded work.
  util::Rng rng(9);
  RatelessDecoder dec(55);
  for (const Digest32& d : random_digests(50, rng)) dec.add_local(d);
  for (int i = 0; i < 2000 && !dec.malformed(); ++i) {
    CodedSymbol junk;
    junk.sum = random_digest(rng);
    junk.check = rng.next();
    junk.count = static_cast<std::int64_t>(rng.below(5)) - 2;
    dec.add_symbol(junk);
  }
  EXPECT_FALSE(dec.decoded());
}

TEST(RatelessDecoder, RepeatedFirstSymbolDoesNotDecodeWrong) {
  // Feeding the same symbol at every stream position is internally
  // inconsistent (positions imply different participation sets). The decoder
  // may stall or flag malformed; it must not report a bogus decode of a
  // non-empty difference.
  util::Rng rng(10);
  const auto host = random_digests(40, rng);
  RatelessEncoder enc(3);
  for (const Digest32& d : host) enc.add_item(d);
  const CodedSymbol first = enc.next_symbol();

  RatelessDecoder dec(3);  // empty local set: true difference is 40 items
  for (int i = 0; i < 500 && !dec.malformed() && !dec.decoded(); ++i) {
    dec.add_symbol(first);
  }
  if (dec.decoded()) {
    EXPECT_EQ(dec.positives().size(), host.size());
    EXPECT_TRUE(dec.negatives().empty());
  }
}

TEST(RatelessDecoder, UpdateOpsGrowSubquadratically) {
  // The lazy windows make per-symbol work ~O(log) amortized; catching an
  // accidental rescan-everything regression.
  util::Rng rng(11);
  const auto host = random_digests(400, rng);
  const auto client = random_digests(100, rng);
  RatelessDecoder dec(9);
  const std::uint64_t used = decode_stream(host, client, 9, dec, 5000);
  ASSERT_GT(used, 0u);
  EXPECT_LT(dec.update_ops(), 64u * used * 20u);
}

// difference_estimate() assumes symbol i holds each item with probability
// 1/(1 + i/2) from i = 8 on. Pin that density: summed over each band of
// indices, a 2,400-item stream's counts sit within 5% of the model's.
TEST(RatelessEncoder, CountDensityFollowsTheEstimateModel) {
  util::Rng rng(14);
  constexpr std::uint64_t kItems = 2400;
  RatelessEncoder enc(0xde751);
  for (const Digest32& d : random_digests(kItems, rng)) enc.add_item(d);
  std::vector<double> counts;
  for (int i = 0; i < 512; ++i) counts.push_back(static_cast<double>(enc.next_symbol().count));
  for (const auto& [lo, hi] : {std::pair{8, 32}, std::pair{32, 128}, std::pair{128, 512}}) {
    double got = 0;
    double model = 0;
    for (int i = lo; i < hi; ++i) {
      got += counts[static_cast<std::size_t>(i)];
      model += static_cast<double>(kItems) / (1.0 + i / 2.0);
    }
    EXPECT_NEAR(got / model, 1.0, 0.05) << "indices [" << lo << ", " << hi << ")";
  }
}

// The rateless backend's first chunk holds max(48, |h − c|) symbols. After
// it, the decoder's estimate of d must lie within a factor of two of the
// true d in at least 95% of sessions: the four divergence cells of the sync
// benchmark (2,400 host items) alternate with random cells.
TEST(RatelessDecoder, DifferenceEstimateTracksD) {
  struct Cell {
    std::uint64_t host_only;
    std::uint64_t client_only;
  };
  constexpr Cell kSyncCells[] = {{10, 10}, {50, 5}, {100, 100}, {400, 40}};
  constexpr std::uint64_t kHostItems = 2400;
  testkit::StatGateSpec spec;
  spec.name = "rateless_difference_estimate";
  spec.trials = 200;
  spec.min_rate = 0.95;
  const testkit::GateResult r =
      testkit::StatGate(spec).run([&](util::Rng& rng, std::uint64_t trial) {
        Cell cell{};
        std::uint64_t host_items = kHostItems;
        if (trial % 2 == 0) {
          cell = kSyncCells[(trial / 2) % std::size(kSyncCells)];
        } else {
          cell = {1 + rng.below(400), rng.below(400)};
          host_items = cell.host_only + rng.below(kHostItems);
        }
        const std::uint64_t salt = rng.next();
        RatelessEncoder enc(salt);
        RatelessDecoder dec(salt);
        for (const Digest32& d : random_digests(host_items - cell.host_only, rng)) {
          enc.add_item(d);
          dec.add_local(d);
        }
        for (const Digest32& d : random_digests(cell.host_only, rng)) enc.add_item(d);
        for (const Digest32& d : random_digests(cell.client_only, rng)) dec.add_local(d);
        const auto host_minus_local =
            static_cast<std::int64_t>(cell.host_only) - static_cast<std::int64_t>(cell.client_only);
        const std::uint64_t first_chunk =
            std::max<std::uint64_t>(48, static_cast<std::uint64_t>(std::llabs(host_minus_local)));
        for (std::uint64_t i = 0; i < first_chunk && !dec.decoded(); ++i) {
          dec.add_symbol(enc.next_symbol());
        }
        const double d = static_cast<double>(cell.host_only + cell.client_only);
        const double estimate = dec.difference_estimate(host_minus_local);
        return estimate >= d / 2 && estimate <= 2 * d;
      });
  GRAPHENE_EXPECT_GATE(r);
  EXPECT_GE(r.observed, 0.95);
}

}  // namespace
}  // namespace graphene::iblt
