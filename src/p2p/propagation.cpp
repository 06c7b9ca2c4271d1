#include "p2p/propagation.hpp"

#include <algorithm>
#include <queue>

#include "baselines/compact_blocks.hpp"
#include "baselines/xthin.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "obs/obs.hpp"

namespace graphene::p2p {

namespace {

struct Event {
  double time = 0.0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  friend bool operator>(const Event& a, const Event& b) { return a.time > b.time; }
};

/// Everything one link-level relay moved, decomposed by component so the
/// propagation totals can answer "where did the bandwidth go" per protocol.
struct RelayOutcome {
  std::size_t bytes = 0;
  std::size_t bloom_bytes = 0;        ///< filters S + R + F (Graphene only)
  std::size_t iblt_bytes = 0;         ///< IBLTs I + J (Graphene only)
  std::size_t missing_txn_bytes = 0;  ///< full transactions shipped
  std::size_t repair_bytes = 0;       ///< repair request/response traffic
  std::size_t fallback_bytes = 0;     ///< full block after decode failure
  std::uint64_t rounds = 1;
  bool used_repair = false;
  bool decode_failed = false;

  /// Bytes not claimed by any component above.
  [[nodiscard]] std::size_t other_bytes() const noexcept {
    return bytes - bloom_bytes - iblt_bytes - missing_txn_bytes - repair_bytes -
           fallback_bytes;
  }
};

/// Runs one link-level relay. Bytes include protocol encodings and any
/// transaction payloads the receiver lacked.
RelayOutcome relay_once(const chain::Block& block, const chain::Mempool& mempool,
                        const PropagationConfig& config, util::Rng& rng) {
  RelayOutcome out;
  switch (config.protocol) {
    case RelayProtocol::kFullBlocks:
      out.bytes = block.full_block_bytes();
      return out;
    case RelayProtocol::kCompactBlocks: {
      const baselines::CompactBlocksResult r =
          baselines::run_compact_blocks(block, mempool, rng.next());
      out.bytes = r.total_bytes();
      out.rounds += r.needed_roundtrip ? 1 : 0;
      return out;
    }
    case RelayProtocol::kXthin: {
      const baselines::XthinResult r = baselines::run_xthin(block, mempool);
      if (!r.success) {
        out.rounds += 1;
        out.decode_failed = true;
        out.fallback_bytes = block.full_block_bytes();
        out.bytes = r.encoding_bytes() + out.fallback_bytes;
        return out;
      }
      out.missing_txn_bytes = r.pushed_txn_bytes;
      out.bytes = r.encoding_bytes() + r.pushed_txn_bytes;
      return out;
    }
    case RelayProtocol::kGraphene: {
      core::ProtocolConfig pcfg;
      pcfg.round_trip_bytes = config.link.round_trip_bytes();
      pcfg.obs = config.obs;
      const core::Sender sender(block, rng.next(), pcfg);
      core::ReceiveSession session(mempool, pcfg);
      const core::Relay relay = core::relay_block(sender, session, mempool.size());
      out.bloom_bytes = relay.block.filter_s.serialized_size();
      out.iblt_bytes = relay.block.iblt_i.serialized_size();
      out.bytes = out.bloom_bytes + out.iblt_bytes + chain::BlockHeader::kWireSize;
      if (relay.request) {
        const core::GrapheneResponseMsg& resp = *relay.response;
        out.rounds += 1;
        out.bloom_bytes += relay.request->filter.serialized_size();
        out.iblt_bytes += resp.iblt_j.serialized_size();
        if (resp.filter_f) out.bloom_bytes += resp.filter_f->serialized_size();
        out.missing_txn_bytes += resp.missing_tx_bytes();
        out.bytes += relay.request->serialize().size() + resp.serialize().size();
      }
      if (relay.repair_request) {
        out.rounds += 1;
        out.used_repair = true;
        out.repair_bytes = relay.repair_request->serialize().size() +
                           relay.repair_response->serialize().size();
        out.bytes += out.repair_bytes;
      }
      if (relay.outcome.status != core::ReceiveStatus::kDecoded) {
        // Fall back to a full block — the deployed behavior on decode
        // failure, one more request and reply.
        out.rounds += 1;
        out.decode_failed = true;
        out.fallback_bytes = block.full_block_bytes();
        out.bytes += block.full_block_bytes();
      }
      return out;
    }
  }
  out.bytes = block.full_block_bytes();
  return out;
}

}  // namespace

const char* protocol_name(RelayProtocol p) noexcept {
  switch (p) {
    case RelayProtocol::kFullBlocks: return "full-blocks";
    case RelayProtocol::kCompactBlocks: return "compact-blocks";
    case RelayProtocol::kXthin: return "xthin";
    case RelayProtocol::kGraphene: return "graphene";
  }
  return "?";
}

PropagationResult propagate_block(const chain::Block& block, const Topology& topology,
                                  const PropagationConfig& config, util::Rng& rng) {
  PropagationResult result;
  const std::uint32_t n_nodes = topology.node_count();
  if (n_nodes == 0) return result;

  // Per-node mempools: each block transaction present with probability
  // `mempool_coverage`, plus unrelated transactions.
  const auto extra = static_cast<std::uint64_t>(config.extra_mempool_multiple *
                                                static_cast<double>(block.tx_count()));
  std::vector<chain::Mempool> mempools(n_nodes);
  for (std::uint32_t node = 1; node < n_nodes; ++node) {
    for (const chain::Transaction& tx : block.transactions()) {
      if (rng.chance(config.mempool_coverage)) mempools[node].insert(tx);
    }
    for (std::uint64_t i = 0; i < extra; ++i) {
      mempools[node].insert(chain::make_random_transaction(rng));
    }
  }

  std::vector<double> received(n_nodes, -1.0);
  received[0] = 0.0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  obs::Registry* reg = config.obs;
  auto schedule_relays = [&](std::uint32_t from, double now) {
    for (const std::uint32_t to : topology.neighbors(from)) {
      if (received[to] >= 0.0) continue;  // inv/getdata suppresses duplicates
      const RelayOutcome relay = relay_once(block, mempools[to], config, rng);
      result.total_bytes += relay.bytes;
      result.relays += 1;
      result.decode_failures += relay.decode_failed ? 1 : 0;
      result.repairs += relay.used_repair ? 1 : 0;
      result.bloom_bytes += relay.bloom_bytes;
      result.iblt_bytes += relay.iblt_bytes;
      result.missing_txn_bytes += relay.missing_txn_bytes;
      result.repair_bytes += relay.repair_bytes;
      result.fallback_bytes += relay.fallback_bytes;
      result.other_bytes += relay.other_bytes();
      result.rounds += relay.rounds;
      if (reg != nullptr) {
        reg->counter("graphene_p2p_relays_total").inc();
        if (relay.decode_failed) reg->counter("graphene_p2p_decode_failures_total").inc();
        if (relay.used_repair) reg->counter("graphene_p2p_repairs_total").inc();
        reg->counter("graphene_p2p_bytes_total").inc(relay.bytes);
        reg->counter("graphene_p2p_bloom_bytes_total").inc(relay.bloom_bytes);
        reg->counter("graphene_p2p_iblt_bytes_total").inc(relay.iblt_bytes);
        reg->counter("graphene_p2p_missing_txn_bytes_total").inc(relay.missing_txn_bytes);
        reg->counter("graphene_p2p_repair_bytes_total").inc(relay.repair_bytes);
        reg->histogram("graphene_p2p_relay_bytes").observe(relay.bytes);
        reg->histogram("graphene_p2p_relay_rounds").observe(relay.rounds);
      }
      // Each round trip beyond the first adds a latency each way.
      const double arrival =
          now + static_cast<double>(2 * relay.rounds - 1) * config.link.latency_s +
          static_cast<double>(relay.bytes) / config.link.bandwidth_bps;
      queue.push(Event{arrival, from, to});
    }
  };

  schedule_relays(0, 0.0);
  std::uint32_t have = 1;
  std::vector<double> arrival_times{0.0};
  while (!queue.empty() && have < n_nodes) {
    const Event ev = queue.top();
    queue.pop();
    if (received[ev.to] >= 0.0) continue;
    received[ev.to] = ev.time;
    arrival_times.push_back(ev.time);
    ++have;
    schedule_relays(ev.to, ev.time);
  }

  std::sort(arrival_times.begin(), arrival_times.end());
  const auto index_at = [&](double fraction) {
    const auto idx = static_cast<std::size_t>(fraction * static_cast<double>(n_nodes));
    return arrival_times[std::min(idx, arrival_times.size() - 1)];
  };
  result.t50_s = index_at(0.50);
  result.t99_s = index_at(0.99);
  return result;
}

}  // namespace graphene::p2p
