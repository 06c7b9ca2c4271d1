#include "graphene/mempool_sync.hpp"

#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"

namespace graphene::core {

namespace {

void record(net::Channel* channel, net::Direction dir, net::MessageType type,
            util::Bytes payload) {
  if (channel != nullptr) channel->send(dir, net::Message{type, std::move(payload)});
}

}  // namespace

MempoolSyncResult sync_mempools(chain::Mempool& sender_pool, chain::Mempool& receiver_pool,
                                std::uint64_t salt, const ProtocolConfig& cfg,
                                net::Channel* channel) {
  MempoolSyncResult result;

  // Degenerate: nothing to offer — the receiver just ships everything over.
  if (sender_pool.size() == 0) {
    for (const chain::Transaction& tx : receiver_pool.transactions()) {
      sender_pool.insert(tx);
      result.txn_bytes += full_tx_wire_size(tx);
      ++result.sender_gained;
    }
    result.success = true;
    return result;
  }

  // The sender's entire mempool plays the role of the block.
  chain::Block pseudo_block(chain::BlockHeader{}, sender_pool.transactions());
  const Sender sender(pseudo_block, salt, cfg);
  ReceiveSession receiver(receiver_pool, cfg);
  const Relay relay = relay_block(sender, receiver, receiver_pool.size());

  util::Bytes offer_bytes = relay.block.serialize();
  result.graphene_bytes += offer_bytes.size();
  record(channel, net::Direction::kSenderToReceiver, net::MessageType::kMempoolSyncOffer,
         std::move(offer_bytes));
  if (relay.request) {
    result.used_protocol2 = true;
    util::Bytes req_bytes = relay.request->serialize();
    result.graphene_bytes += req_bytes.size();
    record(channel, net::Direction::kReceiverToSender, net::MessageType::kMempoolSyncRequest,
           std::move(req_bytes));

    util::Bytes resp_bytes = relay.response->serialize();
    result.graphene_bytes += resp_bytes.size() - relay.response->missing_tx_bytes();
    result.txn_bytes += relay.response->missing_tx_bytes();
    record(channel, net::Direction::kSenderToReceiver, net::MessageType::kMempoolSyncResponse,
           std::move(resp_bytes));
  }
  if (relay.repair_request) {
    result.used_repair = true;
    util::Bytes rep_bytes = relay.repair_request->serialize();
    result.graphene_bytes += rep_bytes.size();
    record(channel, net::Direction::kReceiverToSender, net::MessageType::kMempoolSyncRequest,
           std::move(rep_bytes));

    util::Bytes rep_resp_bytes = relay.repair_response->serialize();
    result.txn_bytes += rep_resp_bytes.size();
    record(channel, net::Direction::kSenderToReceiver, net::MessageType::kMempoolSyncResponse,
           std::move(rep_resp_bytes));
  }

  if (relay.outcome.status != ReceiveStatus::kDecoded) {
    return result;  // success stays false; caller may fall back to full dump
  }

  // Receiver side of the union: adopt every sender transaction it lacked.
  for (const chain::Transaction& tx : receiver.block_transactions()) {
    if (receiver_pool.insert(tx)) ++result.receiver_gained;
  }

  // Sender side of the union. After a successful decode the receiver knows
  // the sender's exact set, so it ships, in mempool order, every transaction
  // of its own outside that set: H, the ones failing S (which has no false
  // negatives), and the ones that passed S falsely. The sender's pool refuses
  // exactly the transactions of that set.
  RepairResponseMsg h_msg;
  for (const chain::Transaction& tx : receiver_pool.transactions()) {
    if (sender_pool.insert(tx)) {
      ++result.sender_gained;
      h_msg.txns.push_back(tx);
    }
  }
  if (!h_msg.txns.empty()) {
    util::Bytes h_bytes = h_msg.serialize();
    result.txn_bytes += h_bytes.size();
    record(channel, net::Direction::kReceiverToSender, net::MessageType::kMempoolSyncResponse,
           std::move(h_bytes));
  }

  result.success = sender_pool.size() == receiver_pool.size();
  return result;
}

}  // namespace graphene::core
