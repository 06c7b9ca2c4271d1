// Control-plane messages of the relay daemon.
//
// The reconciliation payloads themselves (offers, requests, chunks) are the
// existing reconcile::WireMsg vocabulary; the daemon adds exactly three
// frames around them:
//
//   hello  (client → daemon)  opens a session: protocol version, requested
//                             backend, and the client's set size — the
//                             host-side open() input.
//   bye    (client → daemon)  closes a session: the client's verdict and
//                             round count, so the daemon can meter latency
//                             and success without seeing the client's state.
//   error  (daemon → client)  typed pre-close diagnostic: a machine-readable
//                             code plus a bounded human-readable detail.
//
// A connection carries sessions back-to-back: hello … bye, hello … bye, so
// one TCP handshake amortizes over many reconciliations (the loadgen's
// sessions/sec depends on it). All fields are bounded by util/wire_limits
// before they are believed; deserializers throw util::DeserializeError.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace graphene::daemon {

/// Protocol version spoken by this daemon. A hello with any other version is
/// rejected with ErrorCode::kUnsupported; there is no negotiation. Version 2
/// sends a RatelessChunk symbol's count as a CompactSize, not a u64.
inline constexpr std::uint32_t kDaemonProtocolVersion = 2;

/// Session open. `backend` mirrors core::ReconcileBackend's numeric values.
/// Any byte parses; the session rejects an unknown one with
/// ErrorCode::kUnsupported after the version check, so a later version can
/// add backends.
struct HelloMsg {
  std::uint32_t version = kDaemonProtocolVersion;
  std::uint8_t backend = 0;       ///< 0 = Graphene, 1 = rateless IBLT
  std::uint64_t item_count = 0;   ///< client's set size (host open() input)

  [[nodiscard]] util::Bytes serialize() const;
  static HelloMsg deserialize(util::ByteReader& reader);
};

/// Session close, reported by the client.
struct ByeMsg {
  std::uint8_t ok = 0;          ///< 1 = set reconciled and certified, 0 = gave up
  std::uint32_t rounds = 0;     ///< client-counted message round trips

  [[nodiscard]] util::Bytes serialize() const;
  static ByeMsg deserialize(util::ByteReader& reader);
};

/// Typed error the daemon sends before closing a misbehaving connection.
enum class ErrorCode : std::uint8_t {
  kProtocol = 0,     ///< backend rejected the request (typed ProtocolError)
  kMalformed = 1,    ///< frame or payload failed to deserialize
  kLimit = 2,        ///< a daemon policy cap was exceeded
  kUnsupported = 3,  ///< unknown version or backend in hello
  kShutdown = 4,     ///< daemon is stopping; session aborted
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

struct ErrorMsg {
  ErrorCode code = ErrorCode::kProtocol;
  std::string detail;  ///< bounded by util::wire::kMaxDaemonTextBytes

  [[nodiscard]] util::Bytes serialize() const;
  static ErrorMsg deserialize(util::ByteReader& reader);
};

}  // namespace graphene::daemon
