#include "chain/transaction.hpp"

namespace graphene::chain {

Transaction make_random_transaction(util::Rng& rng) {
  Transaction tx;
  for (std::size_t i = 0; i < tx.id.size(); i += 8) {
    const std::uint64_t word = rng.next();
    for (std::size_t b = 0; b < 8; ++b) {
      tx.id[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  // 100..1100-byte transactions, mean ≈ 350 (roughly Bitcoin's mix).
  tx.size_bytes = 100 + static_cast<std::uint32_t>(rng.below(250)) * 4;
  tx.fee_per_kb = 1 + rng.below(10000);
  return tx;
}

std::uint64_t short_id(const TxId& id) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(id[static_cast<std::size_t>(i)]) << (8 * i);
  return v;
}

std::uint64_t short_id_keyed(const util::SipHashKey& key, const TxId& id) noexcept {
  return util::siphash24(key, util::ByteView(id.data(), id.size()));
}

std::uint64_t short_id6(const util::SipHashKey& key, const TxId& id) noexcept {
  return util::siphash24(key, util::ByteView(id.data(), id.size())) & 0xffffffffffffULL;
}

}  // namespace graphene::chain
