// Shared vocabulary of the reconciliation backends.
//
// Items are opaque 32-byte digests (hash your records however you like);
// every backend reconciles ItemSets and reports an Outcome. Code that only
// names items (tools/relayd_set.hpp) includes this without the backend seam.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace graphene::reconcile {

/// Items are identified by 32-byte digests (e.g. SHA-256 of the record).
using ItemDigest = std::array<std::uint8_t, 32>;

using DigestHasher = util::DigestHasher;

using ItemSet = std::unordered_set<ItemDigest, DigestHasher>;

/// Result of a client-side reconciliation step.
struct Outcome {
  /// kNeedsMoreSymbols is appended so the numeric values of the original
  /// states — recorded in flight events and forensic captures — are stable.
  enum class Status {
    kComplete,          ///< host set known and certified
    kNeedsRequest,      ///< Graphene: offer alone not decodable, run repair
    kNeedsFetch,        ///< Graphene: short IDs decoded but digests unknown
    kFailed,            ///< terminal failure (malformed input or budget hit)
    kNeedsMoreSymbols,  ///< rateless: stream not yet decodable, keep reading
  };
  Status status = Status::kFailed;
  /// The host's set as learned by the client (valid when kComplete). Items
  /// the client already held are included.
  ItemSet host_set;
  /// Coded symbols consumed so far (rateless backend only; 0 for Graphene).
  std::uint64_t symbols_consumed = 0;
};

/// True for every non-terminal status — the driver loop keeps exchanging
/// messages while this holds.
[[nodiscard]] constexpr bool needs_more(Outcome::Status s) noexcept {
  return s == Outcome::Status::kNeedsRequest || s == Outcome::Status::kNeedsFetch ||
         s == Outcome::Status::kNeedsMoreSymbols;
}

/// Hashes an arbitrary byte string into an ItemDigest (SHA-256).
[[nodiscard]] ItemDigest digest_of(util::ByteView data) noexcept;

}  // namespace graphene::reconcile
