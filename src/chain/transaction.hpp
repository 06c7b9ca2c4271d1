// Transactions and transaction IDs.
//
// A transaction ID is the double-SHA256 of the transaction payload, as in
// Bitcoin. Graphene's data structures operate on two projections of it:
//  * the full 32-byte ID (Bloom filters, §3.1 "full IDs are used for the
//    Bloom filter"), and
//  * an 8-byte short ID (IBLT cells), optionally keyed with SipHash so that
//    collisions ground out to a single peer (§6.1).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

#include "util/bytes.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"
#include "util/siphash.hpp"

namespace graphene::chain {

using TxId = util::Sha256Digest;

/// A synthetic transaction: identity plus the metadata the propagation
/// protocols care about (serialized size for full-block accounting, fee for
/// the low-fee/spam relay scenario of §2.2).
struct Transaction {
  TxId id{};
  std::uint32_t size_bytes = 250;  ///< typical P2PKH transaction size
  std::uint64_t fee_per_kb = 1000;

  friend bool operator==(const Transaction& a, const Transaction& b) noexcept {
    return a.id == b.id;
  }
};

/// Creates a transaction with a uniformly random ID — statistically
/// equivalent to hashing a unique payload but ~50× faster; Monte Carlo
/// simulation uses this path.
[[nodiscard]] Transaction make_random_transaction(util::Rng& rng);

/// First 8 little-endian bytes of the txid (the paper's 8-byte short ID).
[[nodiscard]] std::uint64_t short_id(const TxId& id) noexcept;

/// SipHash-keyed short ID (deployed-client hardening, §6.1).
[[nodiscard]] std::uint64_t short_id_keyed(const util::SipHashKey& key, const TxId& id) noexcept;

/// Truncation to 6 bytes, the Compact Blocks (BIP-152) short ID width.
[[nodiscard]] std::uint64_t short_id6(const util::SipHashKey& key, const TxId& id) noexcept;

/// Lexicographic txid order — the Canonical Transaction Ordering (CTOR)
/// deployed by Bitcoin Cash (§6.2), which removes the n·log2(n) ordering cost.
struct CtorLess {
  bool operator()(const Transaction& a, const Transaction& b) const noexcept {
    return a.id < b.id;
  }
  bool operator()(const TxId& a, const TxId& b) const noexcept { return a < b; }
};

/// Hash functor for unordered containers keyed by TxId.
struct TxIdHasher {
  std::size_t operator()(const TxId& id) const noexcept {
    return static_cast<std::size_t>(short_id(id));
  }
};

}  // namespace graphene::chain
