#include "chain/mempool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "util/random.hpp"

namespace graphene::chain {
namespace {

TEST(Mempool, InsertContainsGet) {
  util::Rng rng(1);
  Mempool pool;
  const Transaction tx = make_random_transaction(rng);
  EXPECT_TRUE(pool.insert(tx));
  EXPECT_TRUE(pool.contains(tx.id));
  ASSERT_TRUE(pool.get(tx.id).has_value());
  EXPECT_EQ(pool.get(tx.id)->id, tx.id);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, DuplicateInsertRejected) {
  util::Rng rng(2);
  Mempool pool;
  const Transaction tx = make_random_transaction(rng);
  EXPECT_TRUE(pool.insert(tx));
  EXPECT_FALSE(pool.insert(tx));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, EraseRemoves) {
  util::Rng rng(3);
  Mempool pool;
  const Transaction tx = make_random_transaction(rng);
  pool.insert(tx);
  EXPECT_TRUE(pool.erase(tx.id));
  EXPECT_FALSE(pool.contains(tx.id));
  EXPECT_FALSE(pool.erase(tx.id));
  EXPECT_EQ(pool.size(), 0u);
}

TEST(Mempool, GetMissingIsNullopt) {
  Mempool pool;
  EXPECT_FALSE(pool.get(TxId{}).has_value());
}

TEST(Mempool, IdsSnapshotCoversAll) {
  util::Rng rng(4);
  Mempool pool;
  std::vector<TxId> inserted;
  for (int i = 0; i < 500; ++i) {
    const Transaction tx = make_random_transaction(rng);
    pool.insert(tx);
    inserted.push_back(tx.id);
  }
  auto ids = pool.ids();
  EXPECT_EQ(ids.size(), 500u);
  std::sort(ids.begin(), ids.end());
  std::sort(inserted.begin(), inserted.end());
  EXPECT_EQ(ids, inserted);
}

TEST(Mempool, TransactionsSnapshotPreservesMetadata) {
  util::Rng rng(5);
  Mempool pool;
  Transaction tx = make_random_transaction(rng);
  tx.size_bytes = 777;
  pool.insert(tx);
  const auto txs = pool.transactions();
  ASSERT_EQ(txs.size(), 1u);
  EXPECT_EQ(txs[0].size_bytes, 777u);
}

// Seeded random inserts, re-inserts and erases (head, middle and tail of
// the view, plus misses), checked after every step against a std::set.
TEST(Mempool, EraseKeepsIdViewDense) {
  util::Rng rng(6);
  Mempool pool;
  std::set<TxId> ref;
  std::vector<Transaction> erased;
  // Metadata derived from the id, so get() can be checked for each view id.
  const auto fee_of = [](const TxId& id) {
    return (static_cast<std::uint64_t>(id[0]) << 8) | id[1];
  };
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (ref.empty() || op < 5) {
      Transaction tx = make_random_transaction(rng);
      tx.fee_per_kb = fee_of(tx.id);
      ASSERT_EQ(pool.insert(tx), ref.insert(tx.id).second);
    } else if (op == 5 && !erased.empty()) {
      const Transaction tx = erased[rng.below(erased.size())];
      ASSERT_EQ(pool.insert(tx), ref.insert(tx.id).second);
    } else if (op == 6) {
      ASSERT_FALSE(pool.erase(make_random_transaction(rng).id));
    } else {
      const TxId victim = pool.id_view()[rng.below(pool.size())];
      erased.push_back(*pool.get(victim));
      ASSERT_TRUE(pool.erase(victim));
      ref.erase(victim);
      ASSERT_FALSE(pool.erase(victim));
    }

    const std::span<const TxId> view = pool.id_view();
    ASSERT_EQ(view.size(), pool.size());
    const std::set<TxId> distinct(view.begin(), view.end());
    ASSERT_EQ(distinct.size(), view.size()) << "duplicate id in the view, step " << step;
    ASSERT_EQ(distinct, ref) << "step " << step;
    for (const TxId& id : view) {
      ASSERT_TRUE(pool.contains(id));
      const auto tx = pool.get(id);
      ASSERT_TRUE(tx.has_value());
      ASSERT_EQ(tx->id, id);
      ASSERT_EQ(tx->fee_per_kb, fee_of(id));
    }
  }
  EXPECT_GT(erased.size(), 100u);
}

}  // namespace
}  // namespace graphene::chain
