#include "iblt/iblt.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::iblt {

namespace {
constexpr std::uint32_t kMinHashCount = 2;
constexpr std::uint32_t kMaxHashCount = 16;
constexpr std::uint64_t kCheckSalt = 0xc0ffee3141592653ULL;

// Cell counts come off the wire attacker-controlled (a hostile table can
// carry INT32_MIN), so count arithmetic must wrap two's-complement instead
// of being signed-overflow UB. Peeling termination never depends on the
// count value — the `seen` set bounds it — so wraparound is safe.
std::int32_t wrap_add(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
std::int32_t wrap_sub(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

bool is_zero(const Iblt::Cell& c) noexcept {
  return c.key_sum == 0 && c.count == 0 && c.check_sum == 0;
}

/// Open-addressed set of peeled keys, replacing the unordered_map the §6.1
/// duplicate-peel guard originally used: one flat power-of-two array probed
/// linearly from mix64(key), no per-node allocation, one cache line per
/// lookup at the ~0.66 max load factor enforced below. The empty slot is
/// key 0, so a real zero key is tracked in a side flag.
class SeenSet {
 public:
  explicit SeenSet(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, 0);
  }

  /// Returns true when `key` was newly inserted, false when already present.
  bool insert(std::uint64_t key) {
    if (key == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      return true;
    }
    if (3 * (size_ + 1) > 2 * slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(util::mix64(key)) & mask;
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

 private:
  void grow() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = static_cast<std::size_t>(util::mix64(key)) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
  bool has_zero_ = false;
};
}  // namespace

Iblt::Iblt(IbltParams params, std::uint64_t seed) : k_(params.k), seed_(seed) {
  if (k_ < kMinHashCount || k_ > kMaxHashCount) {
    throw std::invalid_argument("Iblt: hash count must be in [2, 16]");
  }
  std::uint64_t cells = params.cells == 0 ? k_ : params.cells;
  // Round up so each of the k partitions covers cells/k slots.
  cells = ((cells + k_ - 1) / k_) * k_;
  cells_.assign(cells, Cell{});
  init_derived();
}

void Iblt::init_derived() noexcept {
  if (cells_.empty()) return;
  stride_ = cells_.size() / k_;
  stride_div_ = util::FastMod64(stride_);
  for (std::uint32_t i = 0; i < k_; ++i) {
    seed_mix_[i] = util::mix64(seed_ + 0x9e3779b97f4a7c15ULL * (i + 1));
  }
}

void Iblt::positions(std::uint64_t key, std::uint64_t* out) const noexcept {
  // Partitioned placement: hash i picks one cell in partition i, matching the
  // k-partite hypergraph model used by the parameter search. Each partition
  // gets an *independent* full mix of (key, seed, i) — double hashing would
  // correlate positions across partitions and visibly depress the peeling
  // threshold relative to the hypergraph model. The key-independent inner
  // mix64(seed + C·(i+1)) is hoisted into seed_mix_ and the `% stride` runs
  // through the exact invariant-divisor reduction; positions are
  // bit-identical to the naive formulation.
  for (std::uint32_t i = 0; i < k_; ++i) {
    const std::uint64_t h = util::mix64(key ^ seed_mix_[i]);
    out[i] = static_cast<std::uint64_t>(i) * stride_ + stride_div_.mod(h);
  }
}

std::uint32_t Iblt::check_hash(std::uint64_t key) const noexcept {
  return static_cast<std::uint32_t>(util::mix64(key ^ kCheckSalt ^ seed_));
}

void Iblt::update(std::uint64_t key, std::int32_t delta) {
  std::uint64_t pos[kMaxHashCount];
  positions(key, pos);
  const std::uint32_t check = check_hash(key);
  for (std::uint32_t i = 0; i < k_; ++i) {
    Cell& cell = cells_[pos[i]];
    cell.count = wrap_add(cell.count, delta);
    cell.key_sum ^= key;
    cell.check_sum ^= check;
  }
}

void Iblt::cancel(std::uint64_t key, int sign) {
  update(key, sign > 0 ? -1 : +1);
  // cancel(+1) removes an item that this difference-IBLT counted positively,
  // which is the same cell arithmetic as erasing it once.
}

Iblt Iblt::subtract(const Iblt& other) const {
  if (cells_.size() != other.cells_.size() || k_ != other.k_ || seed_ != other.seed_) {
    throw std::invalid_argument("Iblt::subtract: incompatible parameters");
  }
  Iblt out = *this;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& cell = out.cells_[i];
    const Cell& sub = other.cells_[i];
    cell.key_sum ^= sub.key_sum;
    cell.count = wrap_sub(cell.count, sub.count);
    cell.check_sum ^= sub.check_sum;
  }
  return out;
}

bool Iblt::empty() const noexcept { return std::all_of(cells_.begin(), cells_.end(), is_zero); }

DecodeResult Iblt::decode() const {
  DecodeResult result;
  std::vector<Cell> cells = cells_;

  auto pure = [&](const Cell& c) {
    return (c.count == 1 || c.count == -1) && check_hash(c.key_sum) == c.check_sum;
  };

  // FIFO worklist of candidate-pure cell indices: a flat vector drained by a
  // head cursor, preserving the exact peel order of the deque it replaces
  // without its per-block allocation. Total pushes are bounded (initial pure
  // cells + k per peeled item), so the vector stays small.
  std::vector<std::uint64_t> worklist;
  worklist.reserve(cells.size() / 4 + 8);
  for (std::uint64_t i = 0; i < cells.size(); ++i) {
    if (pure(cells[i])) worklist.push_back(i);
  }

  // Tracks peeled items to defeat the malformed-IBLT endless loop (§6.1):
  // a well-formed difference IBLT never yields the same key twice.
  SeenSet seen(cells.size());

  std::uint64_t pos[kMaxHashCount];
  std::size_t head = 0;
  while (head < worklist.size()) {
    const std::uint64_t idx = worklist[head++];
    ++result.peel_iterations;
    if (!pure(cells[idx])) continue;  // May have changed since enqueue.

    const std::uint64_t key = cells[idx].key_sum;
    const int sign = cells[idx].count;
    if (!seen.insert(key)) {
      result.malformed = true;
      return result;
    }
    if (sign > 0) {
      result.positives.push_back(key);
    } else {
      result.negatives.push_back(key);
    }

    const std::uint32_t check = check_hash(key);
    positions(key, pos);
    for (std::uint32_t i = 0; i < k_; ++i) {
      Cell& cell = cells[pos[i]];
      cell.count = wrap_sub(cell.count, static_cast<std::int32_t>(sign));
      cell.key_sum ^= key;
      cell.check_sum ^= check;
      if (pure(cell)) worklist.push_back(pos[i]);
    }
  }

  for (const Cell& c : cells) {
    if (!is_zero(c)) ++result.residual_cells;
  }
  result.success = result.residual_cells == 0;
  return result;
}

void Iblt::serialize_into(util::ByteWriter& w) const {
  util::write_varint(w, cells_.size());
  w.u8(static_cast<std::uint8_t>(k_));
  w.u64(seed_);
  for (const Cell& c : cells_) {
    w.i32(c.count);
    w.u64(c.key_sum);
    w.u32(c.check_sum);
  }
}

util::Bytes Iblt::serialize() const {
  util::ByteWriter w;
  serialize_into(w);
  return w.take();
}

std::size_t Iblt::serialized_size() const noexcept {
  return util::varint_size(cells_.size()) + 1 + 8 + cells_.size() * kCellBytes;
}

std::size_t Iblt::serialized_size_for(std::uint64_t cells) noexcept {
  return util::varint_size(cells) + 1 + 8 + cells * kCellBytes;
}

Iblt Iblt::deserialize(util::ByteReader& reader) {
  const std::uint64_t cells =
      util::read_varint_bounded(reader, util::wire::kMaxIbltCells, "Iblt cells");
  const std::uint32_t k = reader.u8();
  if (k < kMinHashCount || k > kMaxHashCount) {
    throw util::DeserializeError("Iblt: invalid hash count");
  }
  if (cells == 0 || cells % k != 0) {
    throw util::DeserializeError("Iblt: cell count not a positive multiple of hash count");
  }
  // Bound the claimed size by the bytes actually present (8 for the seed,
  // then kCellBytes per cell): hostile input must not drive an allocation
  // larger than the buffer backing it.
  if (reader.remaining() < 8 || cells > (reader.remaining() - 8) / kCellBytes) {
    throw util::DeserializeError("Iblt: cell count exceeds buffer");
  }
  const std::uint64_t seed = reader.u64();
  Iblt out(IbltParams{k, cells}, seed);
  for (auto& cell : out.cells_) {
    cell.count = reader.i32();
    cell.key_sum = reader.u64();
    cell.check_sum = reader.u32();
  }
  return out;
}

}  // namespace graphene::iblt
