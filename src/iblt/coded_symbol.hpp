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
#include <cstdint>
#include <cstring>
#include <queue>
#include <unordered_set>
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

  /// Serialized bytes: i64 count | u64 check | 32-byte sum.
  static constexpr std::size_t kWireBytes = 48;

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

/// Streaming encoder over a fixed item set. add_item() every source digest,
/// then draw coded symbols 0, 1, 2, … with next_symbol(); a min-heap on each
/// item's next index makes symbol production O(participants · log n).
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
  using HeapEntry = std::pair<std::uint64_t, std::uint32_t>;  ///< (next index, source)

  std::vector<Source> sources_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  std::uint64_t next_ = 0;
  std::uint64_t set_check_ = 0;
  std::uint64_t salt_;
};

/// Incremental peeling decoder. Seed it with the local set (add_local),
/// then feed the remote stream in index order (add_symbol); after each
/// symbol the decoder peels as far as possible. decoded() flips true the
/// moment every consumed symbol is fully explained; positives() are then
/// the remote-only digests and negatives() the local-only ones.
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
  /// Cell updates performed so far — the decoder's total work, for telemetry
  /// and the malformed-stream budget.
  [[nodiscard]] std::uint64_t update_ops() const noexcept { return ops_; }

 private:
  struct Tracked {
    Digest32 digest;
    std::uint64_t check;
    IndexMapper mapper;
  };
  /// Items applied to every arriving cell with a fixed direction, advanced
  /// lazily via a min-heap on each item's next index.
  struct Window {
    std::vector<Tracked> items;
    std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                        std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                        std::greater<>>
        heap;

    void add(Tracked tracked) {
      heap.emplace(tracked.mapper.current(), static_cast<std::uint32_t>(items.size()));
      items.push_back(std::move(tracked));
    }
  };

  /// Pops every window entry due at `index` and applies it to cells_[index]
  /// with direction `dir`, advancing each popped item's mapper.
  void apply_window(Window& window, std::uint64_t index, std::int64_t dir);
  /// Applies (digest, check, dir) to cells_[index] with zero/pure tracking.
  void touch_cell(std::uint64_t index, const Digest32& digest, std::uint64_t check,
                  std::int64_t dir);
  void enqueue_if_candidate(std::uint64_t index);
  void peel();
  [[nodiscard]] bool over_budget() const noexcept;

  std::uint64_t salt_;
  std::vector<CodedSymbol> cells_;
  Window local_;    ///< initial local set, subtracted from arrivals
  Window rec_pos_;  ///< recovered remote-only items, subtracted from arrivals
  Window rec_neg_;  ///< recovered local-only items, added back to arrivals
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
