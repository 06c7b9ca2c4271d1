// The receiver-side transaction pool.
//
// Exposes exactly the operations the propagation protocols need: membership,
// iteration over IDs (to pass the pool through a Bloom filter), and tracked
// insertion so mempool/block overlap can be constructed precisely in
// simulation.
#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "chain/transaction.hpp"

namespace graphene::chain {

class Mempool {
 public:
  Mempool() = default;

  /// Inserts; returns false if the txid was already present.
  bool insert(const Transaction& tx);

  [[nodiscard]] bool contains(const TxId& id) const noexcept { return pool_.count(id) > 0; }
  [[nodiscard]] std::optional<Transaction> get(const TxId& id) const;
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }

  /// Removes the txid; the last id in id_view() takes its place.
  bool erase(const TxId& id);

  /// Every txid, packed in insertion order except where erase() moved the
  /// last one into a hole. Valid until the next insert() or erase().
  [[nodiscard]] std::span<const TxId> id_view() const noexcept { return ids_; }

  /// Copy of id_view().
  [[nodiscard]] std::vector<TxId> ids() const { return ids_; }

  /// All transactions, in id_view() order.
  [[nodiscard]] std::vector<Transaction> transactions() const;

 private:
  struct Entry {
    Transaction tx;
    std::size_t slot = 0;  ///< index of tx.id in ids_
  };

  std::unordered_map<TxId, Entry, TxIdHasher> pool_;
  std::vector<TxId> ids_;
};

}  // namespace graphene::chain
