#include "chain/mempool.hpp"

namespace graphene::chain {

bool Mempool::insert(const Transaction& tx) {
  if (!pool_.try_emplace(tx.id, Entry{tx, ids_.size()}).second) return false;
  ids_.push_back(tx.id);
  return true;
}

std::optional<Transaction> Mempool::get(const TxId& id) const {
  const auto it = pool_.find(id);
  if (it == pool_.end()) return std::nullopt;
  return it->second.tx;
}

bool Mempool::erase(const TxId& id) {
  const auto it = pool_.find(id);
  if (it == pool_.end()) return false;
  const std::size_t slot = it->second.slot;
  pool_.erase(it);
  if (slot + 1 != ids_.size()) {
    ids_[slot] = ids_.back();
    pool_.find(ids_[slot])->second.slot = slot;
  }
  ids_.pop_back();
  return true;
}

std::vector<Transaction> Mempool::transactions() const {
  std::vector<Transaction> out;
  out.reserve(ids_.size());
  for (const TxId& id : ids_) out.push_back(pool_.find(id)->second.tx);
  return out;
}

}  // namespace graphene::chain
