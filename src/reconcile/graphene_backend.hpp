// GrapheneBackend: the paper's Bloom + IBLT construction behind the
// ReconcilerBackend seam.
//
// Both backends are thin callers of the Graphene engine
// (graphene/engine.hpp), the same engine block relay runs. This layer keeps
// what is particular to sets: the typed messages below (pinned bit-for-bit
// by tests/reconcile/test_backend.cpp golden hashes), digests as the items
// a response carries, the count and set checksum as the final check, the
// flight events, and the WireMsg dispatch (open/serve_wire/absorb_wire/
// next_request) that lets the generic driver run it.
//
//   Offer     — host's digest of its set (Bloom filter S + IBLT I)
//   Request   — client's repair request when the offer alone is not
//               decodable (Protocol 2 step 2 analogue)
//   Response  — host's missing items + correction IBLT J (+ F when m ≈ n)
//   Fetch     — short IDs decoded as host-only but hidden by R's false
//               positives, resolved to digests in one final round
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

  /// Appends the wire encoding to `w`; serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static Offer deserialize(util::ByteReader& reader);
  [[nodiscard]] std::size_t serialized_size() const noexcept;
};

/// Client-side repair request (Protocol 2 step 2 analogue).
struct Request {
  std::uint64_t candidate_count = 0;  ///< z
  std::uint64_t b = 1;
  std::uint64_t y_star = 1;
  double fpr_r = 1.0;
  bool reversed = false;
  bloom::BloomFilter filter;  ///< R over the client's candidate digests

  /// Appends the wire encoding to `w`; serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static Request deserialize(util::ByteReader& reader);
};

/// Host's answer: items the client certainly lacks plus IBLT J.
struct Response {
  std::vector<ItemDigest> missing;
  iblt::Iblt correction;
  std::optional<bloom::BloomFilter> compensation;  ///< F, reversed path only

  /// Appends the wire encoding to `w`; serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static Response deserialize(util::ByteReader& reader);
};

/// Final round: short IDs the client decoded as host-only but cannot map to
/// a digest (they were hidden by R's false positives).
struct FetchRequest {
  std::vector<std::uint64_t> short_ids;
  /// Appends the wire encoding to `w`; serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static FetchRequest deserialize(util::ByteReader& reader);
};

struct FetchResponse {
  std::vector<ItemDigest> items;
  /// Appends the wire encoding to `w`; serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  static FetchResponse deserialize(util::ByteReader& reader);
};

/// Graphene host backend over a copy of the host's items. The typed
/// methods (make_offer, serve, serve_fetch) are const and usable directly.
class GrapheneHostBackend final : public HostBackend {
 public:
  GrapheneHostBackend(const ItemSet& items, std::uint64_t salt,
                      core::ProtocolConfig cfg);

  [[nodiscard]] Offer make_offer(std::uint64_t client_count) const;
  [[nodiscard]] Response serve(const Request& request) const;
  [[nodiscard]] FetchResponse serve_fetch(const FetchRequest& request) const;

  [[nodiscard]] WireMsg open(std::uint64_t client_count) override;
  [[nodiscard]] WireMsg serve_wire(const WireMsg& request) override;

 private:
  core::ProtocolConfig cfg_;
  core::GrapheneHost engine_;
};

/// Graphene client backend; drives the one-way reconciliation. After
/// `absorb(offer)` either the host set is known, or `make_request()` /
/// `complete(response)` runs the recovery round (+ fetch when short IDs
/// stay unresolved).
class GrapheneClientBackend final : public ClientBackend {
 public:
  GrapheneClientBackend(const ItemSet& items, core::ProtocolConfig cfg);

  Outcome absorb(const Offer& offer);
  [[nodiscard]] Request make_request();
  Outcome complete(const Response& response);
  [[nodiscard]] FetchRequest make_fetch() const;
  Outcome complete_fetch(const FetchResponse& response);

  [[nodiscard]] Outcome absorb_wire(const WireMsg& msg) override;
  [[nodiscard]] WireMsg next_request() override;

 private:
  /// Where the wire-driven session stands; used to map a repeat
  /// kNeedsRequest (which the typed API surfaces for single-round callers)
  /// to a terminal kFailed so the generic driver cannot loop.
  enum class Phase : std::uint8_t { kAwaitOffer, kAwaitResponse, kAwaitFetch, kDone };

  /// The count and set-checksum check over the engine's candidates.
  [[nodiscard]] Outcome finalize() const;

  const ItemSet* items_;
  core::ProtocolConfig cfg_;
  core::GrapheneReceiver engine_;
  std::uint64_t host_count_ = 0;
  std::uint64_t set_checksum_ = 0;
  Phase phase_ = Phase::kAwaitOffer;
  Outcome::Status last_status_ = Outcome::Status::kFailed;
};

}  // namespace graphene::reconcile
