// core::relay_block (declared in receiver.hpp) has a unit of its own, so a
// program that steps the session over a link does not link it.
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"

namespace graphene::core {

Relay relay_block(const Sender& sender, ReceiveSession& session, std::uint64_t claimed_m) {
  Relay relay;
  relay.block = sender.encode(claimed_m).msg;
  relay.outcome = session.receive_block(relay.block);
  if (relay.outcome.status == ReceiveStatus::kNeedsProtocol2) {
    relay.request = session.build_request();
    relay.response = sender.serve(*relay.request);
    relay.outcome = session.complete(*relay.response);
  }
  if (relay.outcome.status == ReceiveStatus::kNeedsRepair) {
    relay.repair_request = session.build_repair();
    relay.repair_response = sender.serve_repair(*relay.repair_request);
    relay.outcome = session.complete_repair(*relay.repair_response);
  }
  return relay;
}

}  // namespace graphene::core
