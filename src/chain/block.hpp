// Blocks: header + canonically ordered transactions.
#pragma once

#include <vector>

#include "chain/merkle.hpp"
#include "chain/transaction.hpp"

namespace graphene::chain {

/// §6.2: cost in bytes of transmitting an arbitrary transaction ordering for
/// an n-transaction block — ceil(n·log2(n)/8). Zero under a canonical
/// ordering (CTOR); chains without CTOR pay this on top of Graphene.
[[nodiscard]] std::size_t ordering_cost_bytes(std::uint64_t n) noexcept;

/// 80-byte Bitcoin-style block header.
struct BlockHeader {
  std::int32_t version = 2;
  TxId prev_hash{};
  TxId merkle_root{};
  std::uint32_t time = 0;
  std::uint32_t bits = 0x1d00ffff;
  std::uint32_t nonce = 0;

  static constexpr std::size_t kWireSize = 4 + 32 + 32 + 4 + 4 + 4;

  /// Appends the wire encoding to `w`, where an enclosing message embeds it;
  /// serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static BlockHeader deserialize(util::ByteReader& reader);

  friend bool operator==(const BlockHeader&, const BlockHeader&) = default;
};

class Block {
 public:
  Block() = default;

  /// Builds a block from `txs`, sorting them into CTOR order (§6.2) and
  /// committing to them in the header's Merkle root.
  Block(BlockHeader header, std::vector<Transaction> txs);

  [[nodiscard]] const BlockHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<Transaction>& transactions() const noexcept { return txs_; }
  [[nodiscard]] std::size_t tx_count() const noexcept { return txs_.size(); }

  /// Ordered txids (CTOR order).
  [[nodiscard]] std::vector<TxId> tx_ids() const;

  /// Total serialized size of a full block: header + varint + transactions.
  [[nodiscard]] std::size_t full_block_bytes() const noexcept;

  /// True iff `ids`, after canonical ordering, reproduces this block's
  /// Merkle root — the receiver's final validation step.
  [[nodiscard]] bool validates(std::vector<TxId> ids) const;

 private:
  BlockHeader header_{};
  std::vector<Transaction> txs_;
};

}  // namespace graphene::chain
