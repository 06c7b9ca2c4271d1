// Invertible Bloom Lookup Table (Goodrich & Mitzenmacher) specialized to
// 64-bit keys — the 8-byte short transaction IDs Graphene stores (§3.1).
//
// Cells hold {count, keySum, checkSum}. Subtracting two IBLTs built from
// roughly equal sets cancels the intersection; iterative peeling of "pure"
// cells then recovers the symmetric difference. The decoder implements the
// §6.1 hardening: it aborts (and flags the IBLT as malformed) if any item
// peels twice, which defeats the endless-decode-loop attack.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace graphene::iblt {

/// Tuning parameters: `k` hash functions over `cells` cells (divisible by k).
struct IbltParams {
  std::uint32_t k = 4;
  std::uint64_t cells = 0;
};

/// Outcome of peeling. `positives` are items present only in the minuend
/// (count +1), `negatives` only in the subtrahend (count −1). On failure the
/// vectors still hold everything that peeled before the 2-core was reached —
/// ping-pong decoding (§4.2) builds on these partial results.
struct DecodeResult {
  bool success = false;
  bool malformed = false;
  std::vector<std::uint64_t> positives;
  std::vector<std::uint64_t> negatives;
  /// Peeling-loop iterations (queue pops examined), for telemetry — tracks
  /// the real work done, including re-checks of cells that went impure.
  std::uint64_t peel_iterations = 0;
  /// Items successfully peeled (|positives| + |negatives|).
  [[nodiscard]] std::uint64_t peeled() const noexcept {
    return positives.size() + negatives.size();
  }
  /// Non-zero cells remaining after peeling stopped: 0 on success, the
  /// 2-core size (in cells) on failure. Untouched when malformed.
  std::uint64_t residual_cells = 0;
};

class Iblt {
 public:
  /// Serialized bytes per cell: i32 count + u64 keySum + u32 checkSum.
  static constexpr std::size_t kCellBytes = 16;

  Iblt() = default;

  /// Constructs an empty table. `cells` is rounded up to a multiple of k;
  /// k must be in [2, 16].
  Iblt(IbltParams params, std::uint64_t seed = 0);

  void insert(std::uint64_t key) { update(key, +1); }
  void erase(std::uint64_t key) { update(key, -1); }

  /// Inserts all keys in order (I, J and their receiver-side twins).
  void insert_all(std::span<const std::uint64_t> keys) {
    for (const std::uint64_t key : keys) insert(key);
  }

  /// Cell-wise subtraction (this − other). Both tables must share cell
  /// count, k, and seed; throws std::invalid_argument otherwise.
  [[nodiscard]] Iblt subtract(const Iblt& other) const;

  /// Peels this table. Non-destructive (operates on a copy of the cells).
  [[nodiscard]] DecodeResult decode() const;

  /// Removes an already-known difference item with the given sign (+1 if it
  /// was a positive, −1 if negative). Used by ping-pong decoding to cancel
  /// items recovered from a sibling IBLT.
  void cancel(std::uint64_t key, int sign);

  [[nodiscard]] std::uint64_t cell_count() const noexcept { return cells_.size(); }
  [[nodiscard]] std::uint32_t hash_count() const noexcept { return k_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// True when every cell is zero (the subtraction of identical sets).
  [[nodiscard]] bool empty() const noexcept;

  /// Wire format: varint(cells) | u8(k) | u64(seed) | cells × 16 bytes.
  /// Appends the wire encoding to `w`, where an enclosing message embeds it;
  /// serialize() returns it on its own.
  void serialize_into(util::ByteWriter& w) const;
  [[nodiscard]] util::Bytes serialize() const;
  [[nodiscard]] std::size_t serialized_size() const noexcept;
  static Iblt deserialize(util::ByteReader& reader);

  /// Serialized size of a table with `cells` cells, without building it.
  [[nodiscard]] static std::size_t serialized_size_for(std::uint64_t cells) noexcept;

  /// Test hook: direct cell access for corruption/attack tests.
  ///
  /// Field order packs the struct to 16 bytes (key_sum first avoids the
  /// 4+4-byte padding holes of the count-first layout), shrinking the table
  /// a third and keeping every cell inside one cache line. The wire format
  /// is unaffected: serialize() writes count | key_sum | check_sum
  /// explicitly.
  struct Cell {
    std::uint64_t key_sum = 0;
    std::int32_t count = 0;
    std::uint32_t check_sum = 0;
  };
  static_assert(sizeof(Cell) == 16, "Cell must stay one half cache line");
  [[nodiscard]] std::vector<Cell>& cells_for_test() noexcept { return cells_; }

 private:
  void update(std::uint64_t key, std::int32_t delta);
  void positions(std::uint64_t key, std::uint64_t* out) const noexcept;
  [[nodiscard]] std::uint32_t check_hash(std::uint64_t key) const noexcept;
  /// Rebuilds the derived index state (per-hash seed mixes, invariant
  /// divisor) after cells_/k_/seed_ change. Positions are bit-identical to
  /// the naive per-call formulation; this just hoists the key-independent
  /// half of the hash and strength-reduces the `% stride` divide.
  void init_derived() noexcept;

  std::vector<Cell> cells_;
  std::uint32_t k_ = 4;
  std::uint64_t seed_ = 0;
  std::uint64_t stride_ = 0;                  ///< cells / k (partition width)
  util::FastMod64 stride_div_;                ///< exact reduction by stride_
  std::array<std::uint64_t, 16> seed_mix_{};  ///< mix64(seed + C·(i+1)) per hash
};

}  // namespace graphene::iblt
