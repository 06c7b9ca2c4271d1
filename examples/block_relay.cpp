// Block relay under desynchronization: the receiver is missing a slice of
// the block, so Protocol 1 fails and the full Protocol 2 path runs —
// request filter R, missing transactions + IBLT J, ping-pong decoding, and
// (if short IDs remain unresolved) a final repair round.
//
//   $ ./block_relay [fraction_held]     (default 0.8)
//
// All messages travel through a byte-accounting channel; the summary shows
// where every byte went.
#include <cstdio>
#include <cstdlib>

#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "net/channel.hpp"
#include "sim/scenario.hpp"

int main(int argc, char** argv) {
  using namespace graphene;
  const double fraction = argc > 1 ? std::atof(argv[1]) : 0.8;
  util::Rng rng(4242);

  chain::ScenarioSpec spec;
  spec.block_txns = 2000;
  spec.extra_txns = 2000;
  spec.block_fraction_in_mempool = fraction;
  const chain::Scenario scenario = chain::make_scenario(spec, rng);
  std::printf("block: %llu txns | receiver holds %.0f%% of it | mempool: %llu txns\n\n",
              static_cast<unsigned long long>(scenario.n), 100.0 * fraction,
              static_cast<unsigned long long>(scenario.m));

  // The paper's byte objective: Protocol 2 sizes R for the fewest bytes, not
  // for the fewest round trips, so a few missing transactions slip past R and
  // the relay shows the repair round too. The default prices a round trip
  // and all but never repairs.
  core::ProtocolConfig cfg;
  cfg.round_trip_bytes = 0;
  const core::Sender sender(scenario.block, rng.next(), cfg);
  // One Receiver per node; one session per relayed block. Sessions are
  // independent, so a node can drive several (one per peer) concurrently.
  core::Receiver receiver(scenario.receiver_mempool, cfg);
  core::ReceiveSession session = receiver.session();
  const core::Relay relay = core::relay_block(sender, session, scenario.m);

  net::Channel channel;
  channel.send(net::Direction::kSenderToReceiver,
               net::Message{net::MessageType::kGrapheneBlock, relay.block.serialize()});
  std::printf("protocol 1: %s\n", relay.request ? "needs protocol 2"
                                                : core::to_string(relay.outcome.status));

  if (relay.request) {
    const core::GrapheneRequestMsg& req = *relay.request;
    const core::GrapheneResponseMsg& resp = *relay.response;
    channel.send(net::Direction::kReceiverToSender,
                 net::Message{net::MessageType::kGrapheneRequest, req.serialize()});
    channel.send(net::Direction::kSenderToReceiver,
                 net::Message{net::MessageType::kGrapheneResponse, resp.serialize()});
    std::printf("protocol 2 request: filter R = %zu B (b=%llu, y*=%llu%s)\n",
                req.filter.serialized_size(), static_cast<unsigned long long>(req.b),
                static_cast<unsigned long long>(req.y_star),
                req.reversed ? ", m~n reversed path" : "");
    std::printf("protocol 2 response: %zu missing txns (%zu B), IBLT J = %zu B\n",
                resp.missing.size(), resp.missing_tx_bytes(), resp.iblt_j.serialized_size());
    if (relay.outcome.used_pingpong) std::printf("ping-pong decoding engaged (section 4.2)\n");
  }

  // Short-ID repair round, if some block transactions were still unknown.
  if (relay.repair_request) {
    const core::RepairResponseMsg& repaired = *relay.repair_response;
    channel.send(net::Direction::kReceiverToSender,
                 net::Message{net::MessageType::kGetBlockTxn,
                              relay.repair_request->serialize()});
    channel.send(net::Direction::kSenderToReceiver,
                 net::Message{net::MessageType::kBlockTxn, repaired.serialize()});
    std::printf("repair round: fetched %zu transactions by short ID\n",
                repaired.txns.size());
  }

  if (relay.outcome.status != core::ReceiveStatus::kDecoded) {
    std::printf("FAILED to decode (expected at most ~1/240 of runs)\n");
    return 1;
  }
  std::printf("\ndecoded %zu transactions; Merkle root %s\n", relay.outcome.block_ids.size(),
              relay.outcome.merkle_ok ? "VALID" : "invalid");

  std::printf("\nwire summary:\n");
  for (const auto& [type, bytes] : channel.payload_by_type()) {
    std::printf("  %-12s %8zu B\n", std::string(net::command_name(type)).c_str(), bytes);
  }
  std::printf("  sender->receiver %zu B | receiver->sender %zu B\n",
              channel.payload_bytes(net::Direction::kSenderToReceiver),
              channel.payload_bytes(net::Direction::kReceiverToSender));
  return 0;
}
