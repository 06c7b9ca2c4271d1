// The Graphene backend: the paper's Bloom + IBLT construction behind the
// HostBackend/ClientBackend seam (backend.hpp).
//
// Both sides are thin callers of the Graphene engine (graphene/engine.hpp),
// the same engine block relay runs. This layer keeps what is particular to
// sets: the host messages below (pinned bit-for-bit by tests/reconcile/
// test_backend.cpp golden hashes), digests as the items a response
// carries, the count and set checksum as the final check, and the flight
// events. A session runs through the four WireMsg methods alone, and the
// client takes each host message only in its turn:
//
//   Offer          — host's digest of its set (Bloom filter S + IBLT I)
//   request        — client's Protocol 2 request when the offer alone is not
//                    decodable: core::GrapheneRequestMsg, as in block relay
//   Response       — host's missing items + correction IBLT J (+ F when m ≈ n)
//   fetch          — short IDs decoded as host-only but hidden by R's false
//                    positives: core::RepairRequestMsg, as in block relay
//   FetchResponse  — their digests, in one final round
#pragma once

#include <optional>
#include <vector>

#include "graphene/engine.hpp"
#include "graphene/params.hpp"
#include "reconcile/backend.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile {

/// Host-side digest of a set, sized for a client holding ~`client_count`
/// items that include (most of) the host's set.
struct Offer {
  std::uint64_t count = 0;        ///< |host set|
  std::uint64_t salt = 0;         ///< keys the 8-byte short IDs
  std::uint64_t set_checksum = 0; ///< xor of mix64(short id) over the host set —
                                  ///< the client's final exactness check (the
                                  ///< blockchain protocol uses the Merkle root)
  bloom::BloomFilter filter;      ///< S over the full digests
  iblt::Iblt correction;          ///< I over the short IDs

  [[nodiscard]] util::Bytes serialize() const;
  static Offer deserialize(util::ByteReader& reader);
};

/// The client's two messages are block relay's, under their reconcile
/// names for callers that still use them; new code names the core types.
using Request = core::GrapheneRequestMsg;
using FetchRequest = core::RepairRequestMsg;

/// Host's answer: items the client certainly lacks plus IBLT J.
struct Response {
  std::vector<ItemDigest> missing;
  iblt::Iblt correction;
  std::optional<bloom::BloomFilter> compensation;  ///< F, reversed path only

  [[nodiscard]] util::Bytes serialize() const;
  static Response deserialize(util::ByteReader& reader);
};

/// Final round: the digests of the short IDs the client fetched.
struct FetchResponse {
  std::vector<ItemDigest> items;
  [[nodiscard]] util::Bytes serialize() const;
  static FetchResponse deserialize(util::ByteReader& reader);
};

/// Graphene host backend over a copy of the host's items.
class GrapheneHostBackend final : public HostBackend {
 public:
  GrapheneHostBackend(const ItemSet& items, std::uint64_t salt,
                      core::ProtocolConfig cfg);

  [[nodiscard]] WireMsg open(std::uint64_t client_count) override;
  [[nodiscard]] WireMsg serve_wire(const WireMsg& request) override;

 private:
  core::ProtocolConfig cfg_;
  core::GrapheneHost engine_;
};

/// Graphene client backend over the borrowed `items`. The offer either
/// completes the session or opens the request round; the response either
/// completes it or opens the fetch round; the fetch response ends it.
class GrapheneClientBackend final : public ClientBackend {
 public:
  GrapheneClientBackend(const ItemSet& items, core::ProtocolConfig cfg);

  [[nodiscard]] Outcome absorb_wire(const WireMsg& msg) override;
  [[nodiscard]] WireMsg next_request() override;

 private:
  /// The host message absorb_wire() accepts next, and so the round
  /// next_request() builds. Any other message ends the session kFailed.
  enum class Phase : std::uint8_t { kAwaitOffer, kAwaitResponse, kAwaitFetch, kDone };

  /// kComplete with the candidates when they match the offer's count and
  /// set checksum, else `otherwise`.
  [[nodiscard]] Outcome certify(Outcome::Status otherwise) const;

  const ItemSet* items_;
  core::ProtocolConfig cfg_;
  core::GrapheneReceiver engine_;
  std::uint64_t host_count_ = 0;
  std::uint64_t set_checksum_ = 0;
  Phase phase_ = Phase::kAwaitOffer;
};

}  // namespace graphene::reconcile
