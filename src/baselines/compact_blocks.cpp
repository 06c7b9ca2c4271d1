#include "baselines/compact_blocks.hpp"

#include <unordered_map>

#include "graphene/messages.hpp"
#include "util/varint.hpp"

namespace graphene::baselines {

namespace {
constexpr std::size_t kShortIdBytes = 6;
constexpr std::size_t kNonceBytes = 8;
}  // namespace

std::size_t index_bytes(std::uint64_t n) noexcept { return n < 256 ? 1 : 3; }

std::size_t compact_block_encoding_bytes(std::uint64_t n) noexcept {
  return chain::BlockHeader::kWireSize + kNonceBytes + util::varint_size(n) +
         n * kShortIdBytes + util::varint_size(0);
}

CompactBlocksResult run_compact_blocks(const chain::Block& block,
                                       const chain::Mempool& mempool, std::uint64_t nonce,
                                       net::Channel* channel) {
  CompactBlocksResult result;
  const std::uint64_t n = block.tx_count();
  const util::SipHashKey key{nonce, nonce ^ 0xb1b2b3b4c5c6c7c8ULL};

  // cmpctblock: header, nonce, n short IDs (no prefilled beyond coinbase in
  // this model — synthetic blocks carry no coinbase).
  result.cmpctblock_bytes = compact_block_encoding_bytes(n);
  if (channel != nullptr) {
    util::ByteWriter w;
    w.raw(block.header().serialize());
    w.u64(nonce);
    util::write_varint(w, n);
    for (const chain::Transaction& tx : block.transactions()) {
      const std::uint64_t sid = chain::short_id6(key, tx.id);
      for (int i = 0; i < 6; ++i) w.u8(static_cast<std::uint8_t>(sid >> (8 * i)));
    }
    util::write_varint(w, 0);  // no prefilled transactions
    channel->send(net::Direction::kSenderToReceiver,
                  net::Message{net::MessageType::kCompactBlock, w.take()});
  }

  // Receiver: match mempool short IDs against the announced ones.
  std::unordered_map<std::uint64_t, std::uint32_t> mempool_sids;  // sid → count
  for (const chain::TxId& id : mempool.id_view()) {
    mempool_sids[chain::short_id6(key, id)] += 1;
  }

  std::vector<std::uint64_t> missing_indexes;
  std::uint64_t index = 0;
  for (const chain::Transaction& tx : block.transactions()) {
    const auto it = mempool_sids.find(chain::short_id6(key, tx.id));
    if (it == mempool_sids.end()) {
      missing_indexes.push_back(index);
    } else if (it->second > 1) {
      // BIP-152: a collision inside the mempool is unresolvable from the
      // short ID alone; the receiver requests that index too.
      missing_indexes.push_back(index);
      result.shortid_collision = true;
    }
    ++index;
  }

  result.missing_count = missing_indexes.size();
  if (!missing_indexes.empty()) {
    result.needed_roundtrip = true;
    result.getblocktxn_bytes = util::varint_size(missing_indexes.size()) +
                               missing_indexes.size() * index_bytes(n);
    std::size_t txn_bytes = 0;
    for (const std::uint64_t i : missing_indexes) {
      txn_bytes += core::full_tx_wire_size(block.transactions()[i]);
    }
    result.blocktxn_bytes = txn_bytes;
    if (channel != nullptr) {
      util::ByteWriter req;
      util::write_varint(req, missing_indexes.size());
      for (const std::uint64_t i : missing_indexes) {
        for (std::size_t b = 0; b < index_bytes(n); ++b) {
          req.u8(static_cast<std::uint8_t>(i >> (8 * b)));
        }
      }
      channel->send(net::Direction::kReceiverToSender,
                    net::Message{net::MessageType::kGetBlockTxn, req.take()});
      util::ByteWriter resp;
      for (const std::uint64_t i : missing_indexes) {
        core::write_full_tx(resp, block.transactions()[i]);
      }
      channel->send(net::Direction::kSenderToReceiver,
                    net::Message{net::MessageType::kBlockTxn, resp.take()});
    }
  }

  result.success = true;
  return result;
}

}  // namespace graphene::baselines
