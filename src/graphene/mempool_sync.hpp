// Mempool synchronization (§3.2.1): two peers obtain the union of their
// transaction pools using the block-relay machinery with the sender's whole
// mempool standing in for the block.
//
// Extra step relative to block relay: once the relay decodes, the receiver
// knows the sender's exact set and ships back every transaction of its own
// outside it. That is H, its transactions that fail the sender's filter S,
// plus those that passed S falsely, completing the union in both directions.
#pragma once

#include "chain/mempool.hpp"
#include "graphene/params.hpp"
#include "net/channel.hpp"

namespace graphene::core {

struct MempoolSyncResult {
  bool success = false;        ///< both pools hold the union afterwards
  bool used_protocol2 = false;
  bool used_repair = false;
  std::size_t graphene_bytes = 0;  ///< S+I+R+J+F encodings (no transactions)
  std::size_t txn_bytes = 0;       ///< full transactions exchanged
  std::uint64_t receiver_gained = 0;
  std::uint64_t sender_gained = 0;
};

/// Synchronizes both pools in place. `channel`, when non-null, records every
/// message for byte accounting. `salt` keys short IDs for this session.
MempoolSyncResult sync_mempools(chain::Mempool& sender_pool, chain::Mempool& receiver_pool,
                                std::uint64_t salt, const ProtocolConfig& cfg = {},
                                net::Channel* channel = nullptr);

}  // namespace graphene::core
