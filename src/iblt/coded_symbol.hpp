// Rateless IBLT coded symbols ("Practical Rateless Set Reconciliation",
// Yang, Gilad & Alizadeh, SIGCOMM 2024; arXiv 2402.02668).
//
// Where a classical IBLT must be sized for the symmetric difference d ahead
// of time — and pays a repair round trip when the estimate is low — the
// rateless construction has no size at all. The encoder emits an unbounded
// stream of coded symbols; symbol i XOR-accumulates every source item whose
// pseudo-random index sequence contains i. The sequence density decays like
// 1/i, so early symbols summarize everything and later symbols isolate
// stragglers. The decoder subtracts its own items and peels exactly like an
// IBLT, but incrementally: it consumes symbols until the difference decodes,
// which happens after ~1.35·d symbols for small d (paper Fig. 4) with decode
// failure probability → 0 as the stream extends. Decode failure stops being
// a failure mode and becomes "read a few more symbols".
//
// Items here are 32-byte digests (reconcile::ItemDigest-compatible): the
// symbol sum XORs whole digests, so recovered host-only items surface as
// full digests — no short-ID indirection and no fetch round.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace graphene::iblt {

using Digest32 = std::array<std::uint8_t, 32>;

/// One coded symbol: XOR of member digests, XOR of per-item checksums, and a
/// signed membership count (negative after subtracting a larger local set).
struct CodedSymbol {
  Digest32 sum{};
  std::uint64_t check = 0;
  std::int64_t count = 0;

  /// Fewest serialized bytes: CompactSize count | u64 check | 32-byte sum,
  /// with a one-byte count. A host's count lies in [0, host_count], so on
  /// the wire it takes 1–5 bytes.
  static constexpr std::size_t kMinWireBytes = 41;

  // The digest is folded and tested as four 64-bit words, not 32 bytes: GCC
  // at -O2 turns a byte loop into 32 one-byte XORs, which the rateless
  // session pays for (docs/PERFORMANCE.md).
  void apply(const Digest32& d, std::uint64_t chk, std::int64_t dir) noexcept {
    for (std::size_t i = 0; i < sum.size(); i += 8) {
      std::uint64_t word = load_word(sum, i) ^ load_word(d, i);
      std::memcpy(&sum[i], &word, 8);
    }
    check ^= chk;
    // Wrapping add: a hostile stream can deliver count = INT64_MIN, and the
    // decoder must keep applying items to the garbage cell until its work
    // budget trips — two's-complement wraparound, not UB. (C++20 guarantees
    // the unsigned->signed conversion is the modular inverse.)
    count = static_cast<std::int64_t>(static_cast<std::uint64_t>(count) +
                                      static_cast<std::uint64_t>(dir));
  }

  [[nodiscard]] bool is_zero() const noexcept {
    std::uint64_t any = check | static_cast<std::uint64_t>(count);
    for (std::size_t i = 0; i < sum.size(); i += 8) any |= load_word(sum, i);
    return any == 0;
  }

 private:
  static std::uint64_t load_word(const Digest32& d, std::size_t at) noexcept {
    std::uint64_t word = 0;
    std::memcpy(&word, &d[at], 8);
    return word;
  }
};

/// The paper's pseudo-random index sequence: a strictly increasing stream of
/// coded-symbol indices starting at 0, with gaps that grow in proportion to
/// the current index so that an item participates in symbol i with
/// probability Θ(1/i) — O(log M) participations among the first M symbols.
/// Deterministic given the seed; the decoder replays an item's sequence to
/// cancel it everywhere once recovered.
class IndexMapper {
 public:
  /// `seed` keys the per-item gap PRNG (a multiplicative congruential step,
  /// forced odd so the state never collapses to zero).
  explicit IndexMapper(std::uint64_t seed) noexcept : prng_(seed | 1) {}

  [[nodiscard]] std::uint64_t current() const noexcept { return idx_; }

  /// Advances to — and returns — the next index in the sequence.
  std::uint64_t next() noexcept;

 private:
  std::uint64_t prng_;
  std::uint64_t idx_ = 0;
};

/// Monotone bucket queue of item ids keyed by stream index: which items fall
/// due at each coded symbol. Symbols are produced (or consumed) at indices 0,
/// 1, 2, … and every item's next index lies ahead of the current one, so no
/// order is needed beyond the bucket: a push or a pop is O(1).
///
/// Each index below the horizon — a power of two, at most twice the highest
/// index drained (and 1 before index 1) — has a list head. An id whose key
/// lies at or past the horizon waits on an overflow list, one per power of
/// two of the key, and moves into its bucket when the horizon doubles over
/// that range; so the bucket array grows with the indices drained, never
/// with a key value (mapper gaps reach 9·10^15), and an id is re-bucketed at
/// most once per push. Links are intrusive: one (key, next) pair per id.
class IndexQueue {
 public:
  /// Queues `id` at stream index `key`, which must not precede the next index
  /// to drain. Ids are small dense integers (the caller's item positions).
  void push(std::uint32_t id, std::uint64_t key) {
    if (id >= links_.size()) links_.resize(std::size_t{id} + 1);
    std::uint32_t& head = key < heads_.size() ? heads_[key] : overflow_[overflow_list(key)];
    links_[id] = Link{key, head};
    head = id;
  }

  /// Removes every id queued at `index` and calls `visit(id)` on each; visit
  /// returns the id's next key (past `index`), where it is queued again.
  /// Indices must be drained in increasing order, each at most once.
  template <typename Visit>
  void drain(std::uint64_t index, Visit&& visit) {
    while (index >= heads_.size()) grow();
    std::uint32_t id = std::exchange(heads_[index], kNil);
    while (id != kNil) {
      const std::uint32_t following = links_[id].next;
      push(id, visit(id));
      id = following;
    }
  }

  /// Indices that have a bucket (the horizon).
  [[nodiscard]] std::size_t bucket_count() const noexcept { return heads_.size(); }
  /// Ids waiting past the horizon; walks the overflow lists.
  [[nodiscard]] std::size_t overflow_size() const noexcept;

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Link {
    std::uint64_t key;
    std::uint32_t next;
  };

  /// The overflow list for a key past the horizon: floor(log2(key)). Such a
  /// key is at least 1; `| 1` only keeps the compiler from seeing key 0.
  static std::size_t overflow_list(std::uint64_t key) noexcept {
    return static_cast<std::size_t>(std::bit_width(key | 1)) - 1;
  }
  /// Doubles the horizon and moves the overflow list of keys in
  /// [horizon, 2·horizon) into their buckets.
  void grow();

  std::vector<std::uint32_t> heads_ = std::vector<std::uint32_t>(1, kNil);
  /// overflow_[b] holds the queued ids whose key is in [2^b, 2^(b+1)).
  std::array<std::uint32_t, 64> overflow_ = [] {
    std::array<std::uint32_t, 64> lists{};
    lists.fill(kNil);
    return lists;
  }();
  std::vector<Link> links_;
};

/// Streaming encoder over a fixed item set. add_item() every source digest,
/// then draw coded symbols 0, 1, 2, … with next_symbol(); an IndexQueue of
/// each item's next index makes symbol production O(participants).
class RatelessEncoder {
 public:
  /// `salt` keys the per-item checksums and index sequences; both ends of a
  /// reconciliation must agree on it.
  explicit RatelessEncoder(std::uint64_t salt) noexcept : salt_(salt) {}

  /// Registers a source item. Must precede the first next_symbol() call.
  void add_item(const Digest32& digest);

  /// Produces the coded symbol at index produced() and advances the stream.
  CodedSymbol next_symbol();

  [[nodiscard]] std::uint64_t produced() const noexcept { return next_; }
  [[nodiscard]] std::size_t item_count() const noexcept { return sources_.size(); }

  /// XOR over all items of their checksum — the stream-level exactness
  /// commitment (the analogue of reconcile::Offer::set_checksum).
  [[nodiscard]] std::uint64_t set_checksum() const noexcept { return set_check_; }

 private:
  struct Source {
    Digest32 digest;
    std::uint64_t check;
    IndexMapper mapper;
  };

  std::vector<Source> sources_;
  IndexQueue queue_;  ///< source ids by next index
  std::uint64_t next_ = 0;
  std::uint64_t set_check_ = 0;
  std::uint64_t salt_;
};

/// Incremental peeling decoder. Seed it with the local set (add_local),
/// then feed the remote stream in index order (add_symbol); after each
/// symbol the decoder peels as far as possible. decoded() flips true the
/// moment every consumed symbol is fully explained; positives() are then
/// the remote-only digests and negatives() the local-only ones. The local
/// items and every item recovered so far wait on one IndexQueue, each with
/// the direction it is applied in, so differencing an arriving symbol costs
/// O(items due at its index).
///
/// Hostile streams cannot hang it: every recovery is charged against a
/// per-symbol work budget and a digest may peel at most once per direction
/// (the §6.1 double-peel defense), so the decoder either finishes, reports
/// malformed(), or waits for more symbols — in bounded time per symbol.
class RatelessDecoder {
 public:
  explicit RatelessDecoder(std::uint64_t salt) noexcept : salt_(salt) {}

  /// Registers a local item. Must precede the first add_symbol() call.
  void add_local(const Digest32& digest);

  /// Consumes the coded symbol at stream index received().
  void add_symbol(const CodedSymbol& symbol);

  /// True once the consumed prefix of the stream fully decodes (every cell
  /// zero after peeling). At least one symbol must have been consumed.
  [[nodiscard]] bool decoded() const noexcept {
    return received_ > 0 && nonzero_ == 0 && !malformed_;
  }
  /// True when the stream is provably inconsistent (work budget exhausted or
  /// an item peeled twice) — a terminal state; further symbols are ignored.
  [[nodiscard]] bool malformed() const noexcept { return malformed_; }

  [[nodiscard]] const std::vector<Digest32>& positives() const noexcept {
    return positives_;
  }
  [[nodiscard]] const std::vector<Digest32>& negatives() const noexcept {
    return negatives_;
  }
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

  /// Estimate of the symmetric difference d from the consumed prefix, given
  /// |host set| − |local set|; free, since it reads only the residual cells.
  /// A residual cell holds only the unrecovered difference, and IndexMapper
  /// puts an item in cell i with probability ρ_i = 1/(1 + i/2). So with
  /// s = host_minus_local − (|positives| − |negatives|) and d_u unrecovered
  /// items, E[count_i] = s·ρ_i and Var[count_i] = d_u·ρ_i(1 − ρ_i); the
  /// estimate is the items recovered plus the mean over cells i ≥ 8 of
  /// (count_i − s·ρ_i)² / (ρ_i(1 − ρ_i)). The mapper's first steps depart
  /// from ρ_i (ρ_1 is 0.64, not 2/3), so earlier cells are left out. With
  /// no such cell yet it is the items recovered.
  [[nodiscard]] double difference_estimate(std::int64_t host_minus_local) const noexcept;

  /// Cell updates performed so far — the decoder's total work, for telemetry
  /// and the malformed-stream budget.
  [[nodiscard]] std::uint64_t update_ops() const noexcept { return ops_; }

 private:
  /// An item applied to every arriving cell it participates in: a local item
  /// (subtracted) or a recovered one (cancelled: a remote-only item is
  /// subtracted, a local-only one added back).
  struct Tracked {
    Digest32 digest;
    std::uint64_t check;
    IndexMapper mapper;
    std::int64_t dir;
  };

  /// Queues an item that the cell at its mapper's current index and every
  /// later cell it participates in will be differenced against.
  void track(const Digest32& digest, std::uint64_t check, IndexMapper mapper,
             std::int64_t dir);
  /// Applies (digest, check, dir) to cells_[index] with zero/pure tracking.
  void touch_cell(std::uint64_t index, const Digest32& digest, std::uint64_t check,
                  std::int64_t dir);
  void enqueue_if_candidate(std::uint64_t index);
  void peel();
  [[nodiscard]] bool over_budget() const noexcept;

  std::uint64_t salt_;
  std::vector<CodedSymbol> cells_;
  /// Local items first, then recovered ones in recovery order.
  std::vector<Tracked> tracked_;
  IndexQueue queue_;  ///< tracked_ ids by next index
  std::vector<std::uint64_t> worklist_;
  std::vector<Digest32> positives_;
  std::vector<Digest32> negatives_;
  std::unordered_set<std::uint64_t> peeled_keys_;
  std::uint64_t received_ = 0;
  std::uint64_t nonzero_ = 0;
  std::uint64_t ops_ = 0;
  bool malformed_ = false;
};

/// Per-item checksum and index-sequence seeds, shared by both ends.
[[nodiscard]] std::uint64_t coded_symbol_check(const Digest32& digest,
                                               std::uint64_t salt) noexcept;
[[nodiscard]] std::uint64_t coded_symbol_map_seed(const Digest32& digest,
                                                  std::uint64_t salt) noexcept;

}  // namespace graphene::iblt
