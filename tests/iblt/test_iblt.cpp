#include "iblt/iblt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/hex.hpp"
#include "util/random.hpp"

namespace graphene::iblt {
namespace {

std::vector<std::uint64_t> random_keys(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::set<std::uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.next());
  return {keys.begin(), keys.end()};
}

TEST(Iblt, ConstructorRoundsCellsUpToMultipleOfK) {
  const Iblt t(IbltParams{4, 10});
  EXPECT_EQ(t.cell_count(), 12u);
  EXPECT_EQ(t.hash_count(), 4u);
}

TEST(Iblt, RejectsBadHashCount) {
  EXPECT_THROW(Iblt(IbltParams{1, 10}), std::invalid_argument);
  EXPECT_THROW(Iblt(IbltParams{17, 100}), std::invalid_argument);
}

TEST(Iblt, InsertThenEraseIsEmpty) {
  Iblt t(IbltParams{4, 40});
  for (const std::uint64_t k : random_keys(10, 1)) t.insert(k);
  EXPECT_FALSE(t.empty());
  for (const std::uint64_t k : random_keys(10, 1)) t.erase(k);
  EXPECT_TRUE(t.empty());
}

TEST(Iblt, EmptySeesEveryFieldOfEveryCell) {
  const Iblt blank(IbltParams{4, 40});
  ASSERT_TRUE(blank.empty());
  for (const std::uint64_t cell : {std::uint64_t{0}, blank.cell_count() - 1}) {
    for (int field = 0; field < 3; ++field) {
      Iblt t = blank;
      Iblt::Cell& c = t.cells_for_test().at(cell);
      if (field == 0) c.key_sum = 1ULL << 63;
      if (field == 1) c.count = 1;
      if (field == 2) c.check_sum = 1U << 31;
      EXPECT_FALSE(t.empty()) << "cell " << cell << " field " << field;
    }
  }
}

TEST(Iblt, DecodeRecoverasInsertedKeys) {
  Iblt t(IbltParams{4, 60});
  const auto keys = random_keys(12, 2);
  for (const std::uint64_t k : keys) t.insert(k);
  const DecodeResult dec = t.decode();
  ASSERT_TRUE(dec.success);
  EXPECT_TRUE(dec.negatives.empty());
  auto sorted = dec.positives;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, keys);
}

TEST(Iblt, DecodeIsNonDestructive) {
  Iblt t(IbltParams{4, 40});
  t.insert(123);
  (void)t.decode();
  const DecodeResult again = t.decode();
  ASSERT_TRUE(again.success);
  ASSERT_EQ(again.positives.size(), 1u);
  EXPECT_EQ(again.positives[0], 123u);
}

TEST(Iblt, SubtractRecoversSymmetricDifference) {
  const auto common = random_keys(100, 3);
  const auto only_a = random_keys(8, 4);
  const auto only_b = random_keys(9, 5);

  const IbltParams params{4, 120};
  Iblt a(params, /*seed=*/7), b(params, /*seed=*/7);
  for (const std::uint64_t k : common) {
    a.insert(k);
    b.insert(k);
  }
  for (const std::uint64_t k : only_a) a.insert(k);
  for (const std::uint64_t k : only_b) b.insert(k);

  const DecodeResult dec = a.subtract(b).decode();
  ASSERT_TRUE(dec.success);
  auto pos = dec.positives;
  auto neg = dec.negatives;
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  EXPECT_EQ(pos, only_a);
  EXPECT_EQ(neg, only_b);
}

TEST(Iblt, SubtractIdenticalSetsIsEmpty) {
  const IbltParams params{3, 30};
  Iblt a(params, 1), b(params, 1);
  for (const std::uint64_t k : random_keys(50, 6)) {
    a.insert(k);
    b.insert(k);
  }
  const Iblt diff = a.subtract(b);
  EXPECT_TRUE(diff.empty());
  EXPECT_TRUE(diff.decode().success);
}

TEST(Iblt, SubtractRequiresMatchingParameters) {
  const Iblt a(IbltParams{4, 40}, 1);
  const Iblt b4(IbltParams{4, 44}, 1);
  const Iblt b5(IbltParams{5, 40}, 1);
  const Iblt bseed(IbltParams{4, 40}, 2);
  EXPECT_THROW((void)a.subtract(b4), std::invalid_argument);
  EXPECT_THROW((void)a.subtract(b5), std::invalid_argument);
  EXPECT_THROW((void)a.subtract(bseed), std::invalid_argument);
}

TEST(Iblt, OverloadedTableFailsButReportsPartial) {
  // 12 cells cannot decode 100 items; decode must fail without hanging.
  Iblt t(IbltParams{4, 12});
  for (const std::uint64_t k : random_keys(100, 7)) t.insert(k);
  const DecodeResult dec = t.decode();
  EXPECT_FALSE(dec.success);
  EXPECT_FALSE(dec.malformed);
  EXPECT_LT(dec.positives.size(), 100u);
}

TEST(Iblt, CancelRemovesRecoveredItem) {
  const IbltParams params{4, 40};
  Iblt a(params, 3), b(params, 3);
  a.insert(111);
  a.insert(222);
  b.insert(333);
  Iblt diff = a.subtract(b);
  diff.cancel(111, +1);
  diff.cancel(333, -1);
  const DecodeResult dec = diff.decode();
  ASSERT_TRUE(dec.success);
  ASSERT_EQ(dec.positives.size(), 1u);
  EXPECT_EQ(dec.positives[0], 222u);
  EXPECT_TRUE(dec.negatives.empty());
}

TEST(Iblt, MalformedInsertionDetected) {
  // §6.1 attack: insert an item into only k−1 cells by crafting cells
  // directly, which would loop forever in a naive decoder.
  Iblt t(IbltParams{4, 40});
  t.insert(777);
  // Corrupt: remove the item from one cell only (simulates a k−1 insertion).
  auto& cells = t.cells_for_test();
  for (auto& cell : cells) {
    if (cell.count == 1 && cell.key_sum == 777) {
      cell.count = 0;
      cell.key_sum = 0;
      cell.check_sum = 0;
      break;
    }
  }
  const DecodeResult dec = t.decode();
  EXPECT_FALSE(dec.success);
  // Either flagged malformed (item peeled twice) or simply undecodable;
  // never an endless loop (the test completing proves termination).
}

TEST(Iblt, ChecksumCatchesCorruptedKeySum) {
  Iblt t(IbltParams{4, 40});
  t.insert(42);
  auto& cells = t.cells_for_test();
  for (auto& cell : cells) {
    if (cell.count == 1) {
      cell.key_sum ^= 0xff;  // corrupt the key, leave checksum
      break;
    }
  }
  const DecodeResult dec = t.decode();
  EXPECT_FALSE(dec.success);  // the corrupted cell is never "pure"
}

TEST(Iblt, SerializeRoundTrip) {
  Iblt t(IbltParams{5, 50}, /*seed=*/1234);
  for (const std::uint64_t k : random_keys(9, 8)) t.insert(k);
  const util::Bytes wire = t.serialize();
  EXPECT_EQ(wire.size(), t.serialized_size());
  EXPECT_EQ(wire.size(), Iblt::serialized_size_for(t.cell_count()));

  util::ByteReader r{util::ByteView(wire)};
  const Iblt u = Iblt::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(u.cell_count(), t.cell_count());
  EXPECT_EQ(u.hash_count(), t.hash_count());
  EXPECT_EQ(u.seed(), t.seed());
  EXPECT_TRUE(t.subtract(u).empty());
}

TEST(Iblt, DeserializeRejectsBadK) {
  Iblt t(IbltParams{4, 40});
  util::Bytes wire = t.serialize();
  wire[1] = 1;  // k below minimum (cells fit in 1-byte varint)
  util::ByteReader r{util::ByteView(wire)};
  EXPECT_THROW(Iblt::deserialize(r), util::DeserializeError);
}

TEST(Iblt, CellBytesConstantMatchesWireFormat) {
  const Iblt t(IbltParams{4, 100});
  // header = varint(100)=1 + k(1) + seed(8)
  EXPECT_EQ(t.serialized_size(), 10u + 100u * Iblt::kCellBytes);
}

TEST(Iblt, NegativeOnlyDecodes) {
  const IbltParams params{4, 40};
  Iblt a(params, 9), b(params, 9);
  const auto keys = random_keys(5, 9);
  for (const std::uint64_t k : keys) b.insert(k);
  const DecodeResult dec = a.subtract(b).decode();
  ASSERT_TRUE(dec.success);
  EXPECT_TRUE(dec.positives.empty());
  EXPECT_EQ(dec.negatives.size(), keys.size());
}

class IbltCapacitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IbltCapacitySweep, DecodesAtTableCapacity) {
  // τ = 3 overprovisioning should decode essentially always for these sizes.
  const std::uint64_t j = GetParam();
  util::Rng rng(j);
  int successes = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Iblt t(IbltParams{4, std::max<std::uint64_t>(3 * j, 16)}, rng.next());
    std::set<std::uint64_t> keys;
    while (keys.size() < j) keys.insert(rng.next());
    for (const std::uint64_t k : keys) t.insert(k);
    successes += t.decode().success ? 1 : 0;
  }
  EXPECT_GE(successes, 45) << "j=" << j;
}

INSTANTIATE_TEST_SUITE_P(Sizes, IbltCapacitySweep,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512));


// ---------------------------------------------------------------------------
// Wire-format pin + batch/parallel parity
// ---------------------------------------------------------------------------

// Eight fixed keys in a tiny table, serialized bytes pinned as hex. Any
// change to the cell layout, the per-row hash family, or the checksum salt
// rewrites these bytes and must be treated as a wire format break.
TEST(Iblt, GoldenWireBytesAndDecodePinned) {
  util::Rng rng(777);
  Iblt table(IbltParams{4, 24}, 0x5151);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 8; ++i) keys.push_back(rng.next());
  for (const std::uint64_t key : keys) table.insert(key);

  EXPECT_EQ(util::to_hex(table.serialize()),
            "1804515100000000000001000000d8d41446309a963cbdfcffbe00000000000000"
            "00000000000000000000000000000000000000000000000000010000008964b6eb"
            "2c171009f281f556030000005e1de7dcc4c7e260e3023944030000009e9eda65e5"
            "4e7afd3b121a83020000004ccccdf38a0b099da9d92ac8000000000000000000000"
            "0000000000002000000a98ccce5cea56c694623f1ee020000000a8603d05fdfe55c"
            "2f37cff5020000007ef59dd226759e0057a03dfc000000000000000000000000000"
            "0000002000000a6b6ab466a07cdef019d1cdc02000000e0fc6565bfd3212e8773f9"
            "e10100000057cf8084ec0ea51486b30a5001000000f7912b390a628e09a521c8aa0"
            "20000007727fa8a0ebcd97432110ee80000000000000000000000000000000001000"
            "000d8d41446309a963cbdfcffbe02000000ac30a89635d828b32eaad32901000000"
            "fe434c6122abc97dc090fbbe0000000000000000000000000000000001000000f79"
            "12b390a628e09a521c8aa03000000ec05449c108fe753618a36ac");

  // Peeling the difference (∅ − table) recovers all eight keys on the
  // negative side, in a pinned number of iterations.
  const Iblt empty(IbltParams{4, 24}, 0x5151);
  const DecodeResult dec = empty.subtract(table).decode();
  EXPECT_TRUE(dec.success);
  EXPECT_EQ(dec.positives.size(), 0u);
  EXPECT_EQ(dec.negatives.size(), 8u);
  EXPECT_EQ(dec.peel_iterations, 18u);
  std::set<std::uint64_t> recovered(dec.negatives.begin(), dec.negatives.end());
  EXPECT_EQ(recovered, std::set<std::uint64_t>(keys.begin(), keys.end()));
}

TEST(Iblt, InsertBatchMatchesSequentialInsert) {
  // insert_all is the batch entry the engine and perfbench call; for every
  // arity it must build exactly the cells of one-at-a-time inserts.
  const auto keys = random_keys(3000, 0xba7c4);
  for (std::uint32_t k = 2; k <= 8; ++k) {
    Iblt one(IbltParams{k, 900}, 7);
    Iblt other(IbltParams{k, 900}, 7);
    for (const std::uint64_t key : keys) one.insert(key);
    other.insert_all(keys);
    EXPECT_EQ(one.serialize(), other.serialize()) << "k=" << k;
  }
}

}  // namespace
}  // namespace graphene::iblt
