// Graphene block-relay wire messages (the public network specification,
// §3.1–§3.2). The Protocol 2 request and the short-ID fetch are shared with
// set reconciliation, so graphene/engine.hpp declares them; their
// serializers live here with the rest.
//
// Full transactions serialize to exactly their nominal `size_bytes` on the
// wire (id + length + synthetic body), so byte accounting for "missing
// transaction" traffic matches what a real link would carry.
#pragma once

#include <optional>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "chain/block.hpp"
#include "graphene/engine.hpp"
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

/// Final repair round (extension, documented in DESIGN.md §6): the full
/// transactions for the short IDs of a RepairRequestMsg.
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
