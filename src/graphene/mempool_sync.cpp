#include "graphene/mempool_sync.hpp"

#include <unordered_set>

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
  Sender sender(pseudo_block, salt, cfg);
  ReceiveSession receiver(receiver_pool, cfg);

  GrapheneBlockMsg offer = sender.encode(receiver_pool.size()).msg;

  // H: receiver transactions that fail S — provably absent from the sender,
  // collected in mempool order.
  std::vector<chain::Transaction> to_sender;
  {
    const std::vector<chain::Transaction>& txns = receiver_pool.transactions();
    std::vector<util::ByteView> ids;
    ids.reserve(txns.size());
    for (const chain::Transaction& tx : txns) ids.emplace_back(tx.id.data(), tx.id.size());
    std::vector<std::uint8_t> hit(ids.size());
    bloom::contains_all(offer.filter_s, ids.data(), ids.size(), hit.data());
    for (std::size_t i = 0; i < txns.size(); ++i) {
      if (hit[i] == 0) to_sender.push_back(txns[i]);
    }
  }

  util::Bytes offer_bytes = offer.serialize();
  result.graphene_bytes += offer_bytes.size();
  record(channel, net::Direction::kSenderToReceiver, net::MessageType::kMempoolSyncOffer,
         std::move(offer_bytes));

  ReceiveOutcome out = receiver.receive_block(offer);

  if (out.status == ReceiveStatus::kNeedsProtocol2) {
    result.used_protocol2 = true;
    GrapheneRequestMsg req = receiver.build_request();
    util::Bytes req_bytes = req.serialize();
    result.graphene_bytes += req_bytes.size();
    record(channel, net::Direction::kReceiverToSender, net::MessageType::kMempoolSyncRequest,
           std::move(req_bytes));

    GrapheneResponseMsg resp = sender.serve(req);
    util::Bytes resp_bytes = resp.serialize();
    result.graphene_bytes += resp_bytes.size() - resp.missing_tx_bytes();
    result.txn_bytes += resp.missing_tx_bytes();
    record(channel, net::Direction::kSenderToReceiver, net::MessageType::kMempoolSyncResponse,
           std::move(resp_bytes));

    out = receiver.complete(resp);
  }

  if (out.status == ReceiveStatus::kNeedsRepair) {
    result.used_repair = true;
    RepairRequestMsg rep = receiver.build_repair();
    util::Bytes rep_bytes = rep.serialize();
    result.graphene_bytes += rep_bytes.size();
    record(channel, net::Direction::kReceiverToSender, net::MessageType::kMempoolSyncRequest,
           std::move(rep_bytes));

    RepairResponseMsg rep_resp = sender.serve_repair(rep);
    util::Bytes rep_resp_bytes = rep_resp.serialize();
    result.txn_bytes += rep_resp_bytes.size();
    record(channel, net::Direction::kSenderToReceiver, net::MessageType::kMempoolSyncResponse,
           std::move(rep_resp_bytes));

    out = receiver.complete_repair(rep_resp);
  }

  if (out.status != ReceiveStatus::kDecoded) {
    return result;  // success stays false; caller may fall back to full dump
  }

  // Receiver side of the union: adopt every sender transaction she lacked.
  for (const chain::Transaction& tx : receiver.block_transactions()) {
    if (receiver_pool.insert(tx)) ++result.receiver_gained;
  }

  // Sender side of the union: H plus IBLT-identified false positives. After
  // a successful decode the receiver knows the sender's exact set, so
  // anything in her pool outside it is worth shipping.
  std::unordered_set<chain::TxId, chain::TxIdHasher> sender_set;
  for (const chain::TxId& id : pseudo_block.tx_ids()) sender_set.insert(id);
  for (const chain::Transaction& tx : receiver_pool.transactions()) {
    if (sender_set.count(tx.id) == 0) {
      to_sender.push_back(tx);
    }
  }

  std::unordered_set<chain::TxId, chain::TxIdHasher> shipped;
  RepairResponseMsg h_msg;
  for (const chain::Transaction& tx : to_sender) {
    if (!shipped.insert(tx.id).second) continue;
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
