#include "chain/transaction.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/hex.hpp"

namespace graphene::chain {
namespace {

TEST(Transaction, RandomTransactionsHaveDistinctIds) {
  util::Rng rng(1);
  std::set<TxId> ids;
  for (int i = 0; i < 10000; ++i) ids.insert(make_random_transaction(rng).id);
  EXPECT_EQ(ids.size(), 10000u);
}

TEST(Transaction, RandomSizesInModeledRange) {
  util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const Transaction tx = make_random_transaction(rng);
    EXPECT_GE(tx.size_bytes, 100u);
    EXPECT_LE(tx.size_bytes, 1100u);
  }
}

TEST(ShortId, TakesFirstEightBytesLittleEndian) {
  TxId id{};
  for (std::size_t i = 0; i < id.size(); ++i) id[i] = static_cast<std::uint8_t>(i + 1);
  EXPECT_EQ(short_id(id), 0x0807060504030201ULL);
}

TEST(ShortId, KeyedVariesWithKey) {
  util::Rng rng(3);
  const TxId id = make_random_transaction(rng).id;
  EXPECT_NE(short_id_keyed(util::SipHashKey{1, 2}, id),
            short_id_keyed(util::SipHashKey{1, 3}, id));
}

TEST(ShortId, SixByteVariantFitsIn48Bits) {
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const TxId id = make_random_transaction(rng).id;
    EXPECT_EQ(short_id6(util::SipHashKey{5, 6}, id) >> 48, 0u);
  }
}

TEST(CtorLess, OrdersLexicographically) {
  Transaction a, b;
  a.id.fill(0x01);
  b.id.fill(0x02);
  const CtorLess less;
  EXPECT_TRUE(less(a, b));
  EXPECT_FALSE(less(b, a));
  EXPECT_FALSE(less(a, a));
}

TEST(TxIdHasher, AgreesWithShortId) {
  util::Rng rng(5);
  const TxId id = make_random_transaction(rng).id;
  EXPECT_EQ(TxIdHasher{}(id), static_cast<std::size_t>(short_id(id)));
}

TEST(Transaction, EqualityIsIdentityOnId) {
  util::Rng rng(6);
  Transaction a = make_random_transaction(rng);
  Transaction b = a;
  b.size_bytes += 1;
  EXPECT_EQ(a, b);  // same id ⇒ same transaction
  b.id[0] ^= 1;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace graphene::chain
