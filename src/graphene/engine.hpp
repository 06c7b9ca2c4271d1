// The Graphene engine: Protocols 1 and 2 (§3.1–§3.2), the m ≈ n path of
// §3.3.2 and ping-pong decoding (§4.2), over sets of 32-byte ids.
//
// The paper applies one protocol to blocks and to mempools (§3.2.1), and so
// does this code: block relay (Sender, ReceiveSession) and set
// reconciliation (reconcile::GrapheneHostBackend/GrapheneClientBackend) are
// thin callers of GrapheneHost and GrapheneReceiver. Both send the same
// Protocol 2 request and short-ID fetch (GrapheneRequestMsg and
// RepairRequestMsg below), which the engine builds and reads whole. A caller
// keeps its offer and response structs, what a missing item carries (a full
// transaction or a digest), and the final check that certifies a decode (the
// Merkle root, or the count and set checksum). The engine keeps the rest:
//
//   GrapheneHost      S and I; a request revalidated, partitioned by R,
//                     the m ≈ n b search with filter F, then J; short IDs
//                     mapped back to items, each once
//   GrapheneReceiver  local ids filtered through S and indexed by short ID
//                     (with the set of ambiguous short IDs); I′ and J′
//                     peeled, with ping-pong rescue; each peel resolved to
//                     decoded, needs-request, needs-fetch or failed
//
// Callers differ only in wire-visible constants (EngineKeys). Stage spans
// and stage metrics go to the registry a caller hands in, which may be
// null; flight events and captures are the caller's.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "graphene/params.hpp"
#include "iblt/iblt.hpp"
#include "util/hash.hpp"

namespace graphene::core {

/// An item of a reconciled set: a txid, or a set item's digest.
using Id = std::array<std::uint8_t, 32>;
using IdSet = std::unordered_set<Id, util::DigestHasher>;

/// The wire constants that tell one use of the engine from another. Each
/// seed is salt ^ tweak; short IDs are SipHash-keyed by
/// {salt, salt ^ sid_key} (first 8 bytes of the id when unkeyed).
struct EngineKeys {
  std::uint64_t s_seed = 0;  ///< filter S
  std::uint64_t r_seed = 0;  ///< filter R
  std::uint64_t f_seed = 0;  ///< filter F (m ≈ n path)
  std::uint64_t sid_key = 0;
  /// S and F are sized for max(items, this): 0 keeps the empty filter of an
  /// empty set, 1 sizes it as for one item.
  std::uint64_t min_filter_items = 0;
};

/// 8-byte short ID of `id` under `salt` (§6.1 keying when
/// cfg.keyed_short_ids).
[[nodiscard]] std::uint64_t short_id_of(const Id& id, std::uint64_t salt,
                                        const EngineKeys& keys,
                                        const ProtocolConfig& cfg) noexcept;

/// Where a peel leaves the session.
enum class Resolution : std::uint8_t {
  kDecoded,       ///< the candidates are the host's set, pending the caller's check
  kNeedsRequest,  ///< run Protocol 2
  kNeedsFetch,    ///< short IDs decoded as host-only with no item known
  kFailed,        ///< malformed input, an ambiguous short ID, or a stuck peel
};

/// Protocol 2 step 2: the receiver's filter R over its candidates Z, plus
/// what the host needs to size its answer (b, y*, and the m ≈ n reversal
/// flag). Block relay sends it as grblkreq and set reconciliation as rcnreq;
/// the bytes are the same. Serialized in messages.cpp.
struct GrapheneRequestMsg {
  std::uint64_t z = 0;  ///< |Z|
  std::uint64_t b = 0;
  std::uint64_t y_star = 0;
  double fpr_r = 1.0;  ///< FPR of filter (the host re-derives bounds from it)
  bool reversed = false;
  bloom::BloomFilter filter;  ///< R

  [[nodiscard]] util::Bytes serialize() const;
  static GrapheneRequestMsg deserialize(util::ByteReader& reader);
};

/// The short-ID fetch round (extension, DESIGN.md §6): short IDs the
/// receiver decoded as host-only but holds no item for. Block relay sends it
/// as getblocktxn and set reconciliation as rcnfetch. Serialized in
/// messages.cpp.
struct RepairRequestMsg {
  std::vector<std::uint64_t> short_ids;
  [[nodiscard]] util::Bytes serialize() const;
  static RepairRequestMsg deserialize(util::ByteReader& reader);
};

/// Host side: one set, fixed at construction. All methods are const and
/// safe to call concurrently.
class GrapheneHost {
 public:
  /// `stages` receives stage spans (null: none).
  GrapheneHost(std::vector<Id> ids, std::uint64_t salt, EngineKeys keys,
               ProtocolConfig cfg, obs::Registry* stages);

  struct Offer {
    Protocol1Params params;
    bloom::BloomFilter filter_s;
    iblt::Iblt iblt_i;
  };
  /// Protocol 1 step 3: S and I for a receiver holding `receiver_count` ids.
  [[nodiscard]] Offer offer(std::uint64_t receiver_count) const;

  struct Answer {
    std::vector<std::size_t> missing;  ///< indices into ids(), ascending by id
    iblt::Iblt iblt_j;
    std::optional<bloom::BloomFilter> filter_f;
    std::uint64_t passed = 0;   ///< ids that passed R
    std::uint64_t j_items = 0;  ///< the difference J is sized for
  };
  /// Protocol 2 steps 3–4. Throws ProtocolError under `stage` (after a flight
  /// event to cfg.obs) when the sizing fields are out of range.
  [[nodiscard]] Answer serve(const GrapheneRequestMsg& request, const char* stage) const;

  /// Indices of the ids with the given short IDs, in request order. Each
  /// short ID is answered once: unknown and repeated ones are skipped, so an
  /// answer never holds more items than the set.
  [[nodiscard]] std::vector<std::size_t> lookup(
      const std::vector<std::uint64_t>& short_ids) const;

  [[nodiscard]] const std::vector<Id>& ids() const noexcept { return ids_; }
  [[nodiscard]] const std::vector<std::uint64_t>& short_ids() const noexcept {
    return sids_;
  }
  [[nodiscard]] std::uint64_t salt() const noexcept { return salt_; }

 private:
  std::vector<Id> ids_;
  std::vector<std::uint64_t> sids_;  ///< aligned with ids_
  std::uint64_t salt_;
  EngineKeys keys_;
  ProtocolConfig cfg_;
  obs::Registry* stages_;
};

/// Result of one peel.
struct Peel {
  Resolution status = Resolution::kFailed;
  iblt::DecodeResult decode;          ///< I ⊖ I′ or J ⊖ J′, before ping-pong
  std::uint64_t pingpong_rounds = 0;  ///< 0 unless ping-pong ran
};

/// Receiver side of one session. Not thread-safe; one per session.
class GrapheneReceiver {
 public:
  /// `stages` receives stage spans and stage metrics (null: none).
  GrapheneReceiver(EngineKeys keys, ProtocolConfig cfg, obs::Registry* stages);

  /// Protocol 1 step 4: starts a session for a host set of `n` ids under
  /// `salt`; the candidates Z are the `local` ids that pass S. `local` is
  /// read during the call only.
  void filter(std::uint64_t salt, std::uint64_t n, std::span<const Id> local,
              const bloom::BloomFilter& filter_s);

  /// I ⊖ I′ over Z. Decoded only when every difference is a known candidate
  /// the host lacks; anything else needs a request (or failed, if malformed).
  Peel peel(const iblt::Iblt& iblt_i);

  /// Protocol 2 steps 1–2 for a receiver holding `m` ids: chooses params()
  /// and returns the request, z = |Z| with filter R over Z.
  [[nodiscard]] GrapheneRequestMsg request(std::uint64_t m);

  /// Protocol 2 step 5: prunes Z by F (m ≈ n path), adds `missing`, then
  /// peels J ⊖ J′, with ping-pong against I when J alone leaves a 2-core.
  Peel complete(const iblt::Iblt& iblt_j,
                const std::optional<bloom::BloomFilter>& filter_f,
                const std::vector<Id>& missing);

  /// Adds fetched items and clears unresolved().
  void add_fetched(const std::vector<Id>& fetched);

  [[nodiscard]] const IdSet& candidates() const noexcept { return candidates_; }
  /// |Z| right after filter().
  [[nodiscard]] std::uint64_t observed_z() const noexcept { return z_; }
  /// Short IDs left after the last complete() returned kNeedsFetch.
  [[nodiscard]] const std::vector<std::uint64_t>& unresolved() const noexcept {
    return unresolved_;
  }
  [[nodiscard]] const Protocol2Params& params() const noexcept { return params2_; }
  [[nodiscard]] bool used_pingpong() const noexcept { return used_pingpong_; }
  [[nodiscard]] std::uint64_t short_id(const Id& id) const noexcept {
    return short_id_of(id, salt_, keys_, cfg_);
  }

 private:
  void index(const Id& id);
  [[nodiscard]] std::vector<std::uint64_t> candidate_sids() const;

  EngineKeys keys_;
  ProtocolConfig cfg_;
  obs::Registry* stages_;

  std::uint64_t salt_ = 0;
  std::uint64_t n_ = 0;
  std::uint64_t s_bits_ = 0;
  std::uint32_t s_hashes_ = 0;
  std::uint64_t z_ = 0;
  iblt::Iblt iblt_i_;  ///< kept for ping-pong
  Protocol2Params params2_{};
  bool used_pingpong_ = false;

  std::unordered_map<std::uint64_t, Id> sid_to_id_;
  std::unordered_set<std::uint64_t> ambiguous_;
  IdSet candidates_;
  std::vector<std::uint64_t> unresolved_;
};

}  // namespace graphene::core
