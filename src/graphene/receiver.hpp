// Block relay, receiver side (Protocols 1 and 2, §3.1–§3.2): the mempool's
// txids go through the Graphene engine; this layer adds the header, the
// transactions that arrive over the wire, and the Merkle check.
//
// ReceiveSession drives the full state machine for ONE relayed block:
//
//   receive_block  → Decoded | NeedsProtocol2 | Failed
//   build_request  → GrapheneRequestMsg              (Protocol 2 step 1–2)
//   complete       → Decoded | NeedsRepair | Failed  (step 5, + ping-pong)
//   build_repair / complete_repair                   (short-ID fetch round)
//
// relay_block() runs that sequence in process against a Sender and returns
// every message it exchanged; the step methods remain for callers that carry
// the messages over a link.
//
// Ping-pong decoding (§4.2) engages automatically in complete(): when J ⊖ J′
// leaves a 2-core, the receiver rebuilds I′ over the updated candidate set
// and decodes both differences jointly.
//
// Receiver is the long-lived per-node object: it holds the mempool binding
// and configuration and mints a fresh ReceiveSession per relay. Sessions
// from one Receiver are independent, so distinct peers' relays can be
// driven concurrently from several threads.
#pragma once

#include <optional>
#include <unordered_map>

#include "chain/mempool.hpp"
#include "graphene/engine.hpp"
#include "graphene/errors.hpp"
#include "graphene/messages.hpp"
#include "graphene/params.hpp"

namespace graphene::core {

class Sender;

enum class ReceiveStatus : std::uint8_t {
  kDecoded,         ///< block recovered and Merkle-validated
  kNeedsProtocol2,  ///< IBLT I failed or block txns are missing — run Protocol 2
  kNeedsRepair,     ///< symmetric difference resolved but txn bytes missing
  kFailed,          ///< unrecoverable (or malformed/attack input)
};

/// Stable label for metrics, flight events, and forensic captures
/// ("decoded", "needs_protocol2", "needs_repair", "failed").
[[nodiscard]] const char* to_string(ReceiveStatus status) noexcept;

struct ReceiveOutcome {
  ReceiveStatus status = ReceiveStatus::kFailed;
  /// CTOR-ordered block txids; populated when status == kDecoded.
  std::vector<chain::TxId> block_ids;
  /// Short IDs known to belong to the block but with no transaction held.
  std::vector<std::uint64_t> unresolved;
  /// True when the final Merkle check passed.
  bool merkle_ok = false;
  /// Diagnostics for benches: did ping-pong decoding engage for this block?
  /// Set by complete() and kept on the repair round's outcome.
  bool used_pingpong = false;
};

/// Decode state for one relayed block, from Protocol 1 through Protocol 2
/// and the repair round. Create one per relay (Receiver::session()); never
/// share one instance across threads — instead give each concurrent relay
/// its own session, which is safe because sessions only read the mempool.
class ReceiveSession {
 public:
  explicit ReceiveSession(const chain::Mempool& mempool, ProtocolConfig cfg = {});

  /// Protocol 1 step 4. On kDecoded the block is fully recovered.
  ReceiveOutcome receive_block(const GrapheneBlockMsg& msg);

  /// Protocol 2 steps 1–2. Must follow a non-decoded receive_block().
  [[nodiscard]] GrapheneRequestMsg build_request();

  /// Protocol 2 step 5.
  ReceiveOutcome complete(const GrapheneResponseMsg& resp);

  /// Short-ID repair round for any unresolved items.
  [[nodiscard]] RepairRequestMsg build_repair() const;
  ReceiveOutcome complete_repair(const RepairResponseMsg& resp);

  /// All transactions recovered for the block (valid after kDecoded).
  [[nodiscard]] std::vector<chain::Transaction> block_transactions() const;

  /// Parameters chosen by build_request(), which tests check against the
  /// request they were written into.
  [[nodiscard]] const Protocol2Params& request_params() const noexcept {
    return engine_.params();
  }

  /// Candidate-set size |Z| observed right after filtering the mempool
  /// through S — the Protocol 2 sizing input and the error-context `z`.
  [[nodiscard]] std::uint64_t observed_z() const noexcept { return engine_.observed_z(); }

 private:
  /// The Merkle check over the engine's candidates: kDecoded or kFailed.
  [[nodiscard]] ReceiveOutcome verify() const;
  /// Snapshot of the protocol position for errors and trace records.
  [[nodiscard]] ErrorContext error_context() const noexcept;
  /// Records an `error` trace span + counter, then throws ProtocolError.
  [[noreturn]] void raise(const char* stage, const char* what) const;
  /// Env-gated forensic capture dump (see forensics.hpp); no-op unless a
  /// registry is attached and GRAPHENE_CAPTURE_DIR is set.
  void dump_failure(const char* kind, const char* stage) const;

  const chain::Mempool* mempool_;
  ProtocolConfig cfg_;
  GrapheneReceiver engine_;
  /// The flight recorder's total_recorded() when this session started: its
  /// captures keep only the events from here on.
  std::uint64_t first_event_ = 0;

  // From the block message (valid after receive_block).
  chain::BlockHeader header_{};
  std::uint64_t n_ = 0;
  std::uint64_t salt_ = 0;
  bool have_block_msg_ = false;

  /// Transactions that arrived over the wire rather than from the mempool.
  std::unordered_map<chain::TxId, chain::Transaction, chain::TxIdHasher> received_txns_;
};

/// Long-lived per-node receiver: binds a mempool + config and mints
/// ReceiveSessions. One session decodes one relayed block.
class Receiver {
 public:
  explicit Receiver(const chain::Mempool& mempool, ProtocolConfig cfg = {});

  /// Mints an independent decode session for one relayed block. Safe to
  /// call from multiple threads; each session is then driven by its owner.
  [[nodiscard]] ReceiveSession session() const {
    return ReceiveSession(*mempool_, cfg_);
  }

 private:
  const chain::Mempool* mempool_;
  ProtocolConfig cfg_;
};

/// Every message of one in-process block relay, as its sender built it, and
/// the receiver's final outcome. A message is absent when the relay ended
/// before its round.
struct Relay {
  GrapheneBlockMsg block;
  std::optional<GrapheneRequestMsg> request;
  std::optional<GrapheneResponseMsg> response;
  std::optional<RepairRequestMsg> repair_request;
  std::optional<RepairResponseMsg> repair_response;
  ReceiveOutcome outcome;
};

/// Relays `sender`'s block into `session` for a receiver that claims
/// `claimed_m` mempool transactions: Protocol 1, then Protocol 2 on
/// kNeedsProtocol2 and the repair round on kNeedsRepair. Stops at the first
/// terminal outcome (kDecoded or kFailed).
[[nodiscard]] Relay relay_block(const Sender& sender, ReceiveSession& session,
                                std::uint64_t claimed_m);

}  // namespace graphene::core
