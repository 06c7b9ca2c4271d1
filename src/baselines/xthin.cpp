#include "baselines/xthin.hpp"

#include <unordered_set>

#include "bloom/bloom_filter.hpp"
#include "graphene/messages.hpp"
#include "util/varint.hpp"

namespace graphene::baselines {

XthinResult run_xthin(const chain::Block& block, const chain::Mempool& mempool,
                      const XthinConfig& cfg, net::Channel* channel) {
  XthinResult result;
  const std::uint64_t m = mempool.size();

  // Receiver → sender: Bloom filter over the mempool.
  bloom::BloomFilter filter(std::max<std::uint64_t>(m, 1), cfg.mempool_filter_fpr,
                            cfg.filter_seed);
  for (const chain::TxId& id : mempool.id_view()) {
    filter.insert(util::ByteView(id.data(), id.size()));
  }
  result.getdata_filter_bytes = filter.serialized_size();
  if (channel != nullptr) {
    channel->send(net::Direction::kReceiverToSender,
                  net::Message{net::MessageType::kXthinGetData, filter.serialize()});
  }

  // Sender → receiver: 8-byte IDs for every block txn + full transactions
  // for those failing the filter.
  util::ByteWriter w;
  w.raw(block.header().serialize());
  util::write_varint(w, block.tx_count());
  std::vector<const chain::Transaction*> pushed;
  for (const chain::Transaction& tx : block.transactions()) {
    w.u64(chain::short_id(tx.id));
    if (!filter.contains(util::ByteView(tx.id.data(), tx.id.size()))) {
      pushed.push_back(&tx);
    }
  }
  result.shortid_bytes = chain::BlockHeader::kWireSize +
                         util::varint_size(block.tx_count()) + 8 * block.tx_count();
  util::write_varint(w, pushed.size());
  for (const chain::Transaction* tx : pushed) {
    core::write_full_tx(w, *tx);
    result.pushed_txn_bytes += core::full_tx_wire_size(*tx);
  }
  result.pushed_txn_count = pushed.size();
  if (channel != nullptr) {
    channel->send(net::Direction::kSenderToReceiver,
                  net::Message{net::MessageType::kXthinBlock, w.take()});
  }

  // Receiver-side reconstruction check: every non-pushed block transaction
  // must be resolvable from the mempool by its 8-byte short ID.
  std::unordered_set<std::uint64_t> mempool_sids;
  bool collision = false;
  for (const chain::TxId& id : mempool.id_view()) {
    if (!mempool_sids.insert(chain::short_id(id)).second) collision = true;
  }
  std::unordered_set<std::uint64_t> pushed_sids;
  for (const chain::Transaction* tx : pushed) pushed_sids.insert(chain::short_id(tx->id));

  bool ok = true;
  for (const chain::Transaction& tx : block.transactions()) {
    const std::uint64_t sid = chain::short_id(tx.id);
    if (pushed_sids.count(sid) > 0) continue;
    if (mempool.contains(tx.id)) continue;
    // The filter matched a transaction the receiver does not actually have.
    ok = false;
  }
  result.unrecoverable_collision = !ok || collision;
  result.success = ok;
  return result;
}

}  // namespace graphene::baselines
