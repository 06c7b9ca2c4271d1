// Decode-failure forensics: self-contained, replayable captures of a failed
// protocol session.
//
// When a relay ends in anything but kDecoded — an IBLT that kept its 2-core,
// a ProtocolError, or a FaultyChannel-induced abort — the interesting state
// is spread across three places: the receiver's mempool, the chosen
// parameters, and the exact wire bytes that crossed the link. A
// ForensicCapture bundles all three (plus the flight-recorder event log)
// into one JSON document, and replay_capture() re-executes it against a
// fresh Sender/ReceiveSession, byte-comparing every message the replayed
// session produces against the recording. Replay is deterministic because
// every protocol structure is insertion-order independent: Bloom filters OR
// bits and IBLT cells XOR, so a mempool rebuilt in any iteration order
// yields identical filters, identical IBLTs, and identical wire bytes.
//
// Two replay modes, chosen by what the capture carries:
//   * receiver-only (the default): received messages are fed from the
//     recorded wire bytes; messages the receiver *sent* are regenerated and
//     byte-compared. Works without the sender's block.
//   * full-loop (attach_block()): a Sender is reconstructed from the block
//     snapshot and every sender-side message is regenerated and compared
//     too, closing the loop end to end.
//
// Captures are dumped automatically by the engines when the environment
// variable GRAPHENE_CAPTURE_DIR names a directory (see maybe_dump_capture),
// and replayed with `tools/replay_capture <file.json>`.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chain/block.hpp"
#include "chain/mempool.hpp"
#include "graphene/errors.hpp"
#include "graphene/params.hpp"
#include "obs/flight_recorder.hpp"

namespace graphene::core {

/// One failed session, snapshotted at the moment of failure. Field-for-field
/// JSON schema documented in docs/OBSERVABILITY.md.
struct ForensicCapture {
  static constexpr std::string_view kSchema = "graphene.capture.v1";

  /// "decode_failure" | "protocol_error" | "channel_abort".
  std::string kind;
  /// Protocol stage at failure ("p1_peel", "build_request", ...).
  std::string stage;
  /// Freeform context from whoever built the capture.
  std::string note;

  std::uint64_t salt = 0;      ///< short-ID salt of the relayed block
  std::uint64_t claimed_m = 0; ///< receiver mempool count given to encode()

  // ProtocolConfig scalars (the runtime pointers — obs/param_cache — are
  // environment, not protocol state, and are not captured).
  double beta = 239.0 / 240.0;
  std::uint32_t fail_denom = 240;
  bool keyed_short_ids = true;
  double near_equal_fpr = 0.1;
  bool enable_pingpong = true;
  /// Captures written before the key existed load as 0, the byte objective
  /// they were recorded under.
  std::uint64_t round_trip_bytes = ProtocolConfig{}.round_trip_bytes;

  /// Receiver mempool snapshot (order-irrelevant; see header comment).
  std::vector<chain::Transaction> mempool;

  /// Optional sender-side block for full-loop replay.
  bool has_block = false;
  chain::BlockHeader block_header{};
  std::vector<chain::Transaction> block_txns;

  /// ErrorContext of the ProtocolError, when kind == "protocol_error".
  bool has_error = false;
  ErrorContext error{};

  /// The flight-recorder timeline, including the offending wire bytes.
  std::vector<obs::FlightEvent> events;

  /// Rebuilds the ProtocolConfig the session ran under (pointers null).
  [[nodiscard]] ProtocolConfig config() const;

  [[nodiscard]] std::string to_json() const;
  /// Strict parse; throws obs::json::ParseError or util::DeserializeError.
  [[nodiscard]] static ForensicCapture from_json(std::string_view text);
};

/// Builds a capture from the live session environment: copies the mempool,
/// the config scalars, and — when `cfg.obs` is attached — the flight
/// recorder's events numbered `first_seq` or later. A session passes the
/// recorder's total_recorded() from its start, so a registry shared by
/// sessions run one after another yields captures of one session each
/// (sessions that run at the same time still interleave).
[[nodiscard]] ForensicCapture make_capture(std::string kind, std::string stage,
                                           const chain::Mempool& mempool,
                                           const ProtocolConfig& cfg,
                                           std::uint64_t salt,
                                           std::uint64_t first_seq = 0);

/// Attaches the sender's block, enabling full-loop replay.
void attach_block(ForensicCapture& cap, const chain::Block& block,
                  std::uint64_t claimed_m);

/// Writes the capture into `dir` with a process-unique file name; returns
/// the full path. Throws std::runtime_error when the file cannot be written.
std::string dump_capture(const ForensicCapture& cap, const std::string& dir);

/// True when $GRAPHENE_CAPTURE_DIR is set and the per-process dump cap has
/// not been reached — check this BEFORE building a capture, because
/// make_capture() copies the whole mempool.
[[nodiscard]] bool capture_enabled();

/// Env-gated dump: writes to $GRAPHENE_CAPTURE_DIR when set, subject to a
/// per-process cap of $GRAPHENE_CAPTURE_LIMIT dumps (default 16 — a
/// statistical gate intentionally driving thousands of decode failures must
/// not fill the disk). Returns the path when a file was written, nullopt
/// when capturing is off, the cap is reached, or the write failed (forensics
/// must never take down the protocol path).
std::optional<std::string> maybe_dump_capture(const ForensicCapture& cap);

/// Verdict of one replay.
struct ReplayReport {
  bool ran = false;            ///< at least one recorded event was re-executed
  bool outcome_match = true;   ///< every decode outcome / error matched
  bool bytes_match = true;     ///< every regenerated message matched byte-for-byte
  std::string recorded_outcome;
  std::string replayed_outcome;
  std::vector<std::string> notes;

  [[nodiscard]] bool ok() const noexcept { return ran && outcome_match && bytes_match; }
};

/// Re-executes the capture against a fresh ReceiveSession (and Sender, when
/// the capture carries the block). Never throws on protocol-level failures —
/// a ProtocolError during replay is an *expected* part of reproducing a
/// protocol_error capture and is matched against the recorded one.
[[nodiscard]] ReplayReport replay_capture(const ForensicCapture& cap);

}  // namespace graphene::core
