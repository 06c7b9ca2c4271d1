#include "chain/merkle.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"
#include "util/sha256.hpp"

namespace graphene::chain {
namespace {

std::vector<TxId> random_ids(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<TxId> ids(count);
  for (auto& id : ids) id = make_random_transaction(rng).id;
  return ids;
}

TEST(Merkle, EmptyIsZero) { EXPECT_EQ(merkle_root({}), TxId{}); }

TEST(Merkle, SingleLeafIsItself) {
  const auto ids = random_ids(1, 1);
  EXPECT_EQ(merkle_root(ids), ids[0]);
}

TEST(Merkle, TwoLeavesMatchManualHash) {
  const auto ids = random_ids(2, 2);
  util::Sha256 h;
  h.update(util::ByteView(ids[0].data(), 32));
  h.update(util::ByteView(ids[1].data(), 32));
  const auto once = h.finalize();
  EXPECT_EQ(merkle_root(ids), util::sha256(util::ByteView(once.data(), 32)));
}

TEST(Merkle, OddCountDuplicatesLast) {
  auto ids = random_ids(3, 3);
  auto padded = ids;
  padded.push_back(ids.back());
  EXPECT_EQ(merkle_root(ids), merkle_root(padded));
}

TEST(Merkle, OrderSensitive) {
  auto ids = random_ids(4, 4);
  const TxId original = merkle_root(ids);
  std::swap(ids[0], ids[1]);
  EXPECT_NE(merkle_root(ids), original);
}

TEST(Merkle, ContentSensitive) {
  auto ids = random_ids(8, 5);
  const TxId original = merkle_root(ids);
  ids[3][0] ^= 1;
  EXPECT_NE(merkle_root(ids), original);
}

TEST(Merkle, DeterministicAcrossCalls) {
  const auto ids = random_ids(100, 6);
  EXPECT_EQ(merkle_root(ids), merkle_root(ids));
}

// The root goes through Sha256's compress body: every tree shape from 1 to
// 65 leaves (odd levels included) must give the same root on the portable
// body and on the best body this CPU runs.
TEST(Merkle, RootIdenticalAcrossSha256Bodies) {
  const util::Sha256Compress original =
      util::set_sha256_compress(&util::sha256_compress_portable);
  for (std::size_t n = 1; n <= 65; ++n) {
    const auto ids = random_ids(n, 1000 + n);
    util::set_sha256_compress(&util::sha256_compress_portable);
    const TxId portable = merkle_root(ids);
    util::set_sha256_compress(util::sha256_compress_best());
    EXPECT_EQ(merkle_root(ids), portable) << n << " leaves";
  }
  util::set_sha256_compress(original);
}

class MerkleSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizeSweep, RootChangesWhenAnyLeafRemoved) {
  auto ids = random_ids(GetParam(), 7);
  const TxId full = merkle_root(ids);
  ids.pop_back();
  EXPECT_NE(merkle_root(ids), full);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeSweep,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 15, 16, 17, 64, 100));

}  // namespace
}  // namespace graphene::chain
