// Graphene wire messages (the public network specification, §3.1–§3.2).
//
// Full transactions serialize to exactly their nominal `size_bytes` on the
// wire (id + length + synthetic body), so byte accounting for "missing
// transaction" traffic matches what a real link would carry.
#pragma once

#include <optional>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "chain/block.hpp"
#include "iblt/iblt.hpp"

namespace graphene::core {

/// Protocol 1, step 3: block header, announced tx count, short-ID salt, the
/// sender's Bloom filter S, and IBLT I.
struct GrapheneBlockMsg {
  chain::BlockHeader header{};
  std::uint64_t n = 0;
  std::uint64_t shortid_salt = 0;
  bloom::BloomFilter filter_s;
  iblt::Iblt iblt_i;

  [[nodiscard]] util::Bytes serialize() const;
  static GrapheneBlockMsg deserialize(util::ByteReader& reader);
};

/// Protocol 2, step 2: the receiver's filter R plus the parameters the
/// sender needs (b, y*, z and the m≈n reversal flag).
struct GrapheneRequestMsg {
  std::uint64_t z = 0;
  std::uint64_t b = 0;
  std::uint64_t y_star = 0;
  double fpr_r = 1.0;  ///< FPR of filter_r (the sender re-derives bounds from it)
  bool reversed = false;
  bloom::BloomFilter filter_r;

  [[nodiscard]] util::Bytes serialize() const;
  static GrapheneRequestMsg deserialize(util::ByteReader& reader);
};

/// Protocol 2, steps 3–4: missing transactions, IBLT J, and — in the m≈n
/// reversal — the sender's compensating filter F.
struct GrapheneResponseMsg {
  std::vector<chain::Transaction> missing;
  iblt::Iblt iblt_j;
  std::optional<bloom::BloomFilter> filter_f;

  [[nodiscard]] util::Bytes serialize() const;
  static GrapheneResponseMsg deserialize(util::ByteReader& reader);

  /// Payload bytes attributable to the missing transactions alone (the
  /// paper's figures exclude these; the simulator reports them separately).
  [[nodiscard]] std::size_t missing_tx_bytes() const noexcept;
};

/// Final repair round (extension, documented in DESIGN.md §6): short IDs the
/// receiver decoded from an IBLT but holds no transaction for.
struct RepairRequestMsg {
  std::vector<std::uint64_t> short_ids;
  [[nodiscard]] util::Bytes serialize() const;
  static RepairRequestMsg deserialize(util::ByteReader& reader);
};

struct RepairResponseMsg {
  std::vector<chain::Transaction> txns;
  [[nodiscard]] util::Bytes serialize() const;
  static RepairResponseMsg deserialize(util::ByteReader& reader);
};

/// Serializes a full transaction at its nominal wire size.
void write_full_tx(util::ByteWriter& w, const chain::Transaction& tx);
[[nodiscard]] chain::Transaction read_full_tx(util::ByteReader& r);
[[nodiscard]] std::size_t full_tx_wire_size(const chain::Transaction& tx) noexcept;

}  // namespace graphene::core
