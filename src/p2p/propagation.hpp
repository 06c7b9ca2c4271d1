// Event-driven block propagation over a peer topology.
//
// Reproduces the paper's motivation quantitatively (§1: "throughput is a
// bottleneck for propagating blocks larger than 20KB, and delays grow
// linearly with block size"): a miner announces a block; every peer that
// completes reception relays onward. Per-link transfer time is
// (2r − 1) · latency + bytes/bandwidth, where r is the relay's round trips
// (one more each for Protocol 2, the repair round, Compact Blocks'
// getblocktxn and a full-block fallback) and bytes come from running the
// *actual* relay protocol (Graphene, Compact Blocks, XThin, or full blocks)
// against the receiving peer's mempool. Graphene relays price a round trip
// at the link's round_trip_bytes(). Outputs: time to reach 50%/99% of peers
// and total network bytes — the quantities that drive fork rates and the
// maximum sustainable block size.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/block.hpp"
#include "chain/mempool.hpp"
#include "p2p/topology.hpp"

namespace graphene::obs {
class Registry;
}  // namespace graphene::obs

namespace graphene::p2p {

enum class RelayProtocol : std::uint8_t {
  kFullBlocks,
  kCompactBlocks,
  kXthin,
  kGraphene,
};

[[nodiscard]] const char* protocol_name(RelayProtocol p) noexcept;

struct LinkModel {
  double latency_s = 0.05;            ///< one-way propagation delay
  double bandwidth_bps = 8e6 / 8.0;   ///< 1 MB/s per link (bytes per second)

  /// Bytes the link carries in one round trip: bandwidth × 2 · latency.
  [[nodiscard]] std::uint64_t round_trip_bytes() const noexcept {
    return static_cast<std::uint64_t>(bandwidth_bps * 2.0 * latency_s);
  }
};

struct PropagationConfig {
  RelayProtocol protocol = RelayProtocol::kGraphene;
  LinkModel link{};
  /// Probability that a given block transaction is already in a peer's
  /// mempool (models incomplete transaction propagation, §2.2/§3.2).
  double mempool_coverage = 1.0;
  /// Extra (non-block) transactions per peer, as a multiple of block size.
  double extra_mempool_multiple = 1.0;
  /// When non-null, per-relay session metrics — bytes by component, round
  /// counts, decode failures, repair rate — aggregate into this registry,
  /// ready for Registry::to_prometheus.
  obs::Registry* obs = nullptr;
};

struct PropagationResult {
  double t50_s = 0.0;            ///< time until 50% of peers hold the block
  double t99_s = 0.0;            ///< time until 99% of peers hold the block
  std::size_t total_bytes = 0;   ///< all relay traffic, both directions
  std::size_t relays = 0;        ///< successful link-level relays
  std::size_t decode_failures = 0;  ///< relays that fell back to a full block
  std::size_t repairs = 0;          ///< relays that needed the repair round

  /// Per-component decomposition of total_bytes (Graphene relays only; the
  /// baselines report everything under `other_bytes`).
  std::size_t bloom_bytes = 0;        ///< filters S + R + F across all relays
  std::size_t iblt_bytes = 0;         ///< IBLTs I + J across all relays
  std::size_t missing_txn_bytes = 0;  ///< full transactions shipped
  std::size_t repair_bytes = 0;       ///< repair request/response traffic
  std::size_t fallback_bytes = 0;     ///< full blocks sent after decode failure
  std::size_t other_bytes = 0;        ///< headers, requests, baseline traffic

  /// Protocol round trips summed over all relays (1 per relay minimum).
  std::uint64_t rounds = 0;
};

/// Propagates `block` from node 0 across `topology` under `config`.
/// Deterministic given `rng`'s state.
PropagationResult propagate_block(const chain::Block& block, const Topology& topology,
                                  const PropagationConfig& config, util::Rng& rng);

}  // namespace graphene::p2p
