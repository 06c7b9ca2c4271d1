#include "iblt/coded_symbol.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "util/hash.hpp"

namespace graphene::iblt {

namespace {

// Domain separators so the per-item checksum and the index-sequence seed are
// independent functions of (digest, salt).
constexpr std::uint64_t kCheckDomain = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMapDomain = 0xc2b2ae3d27d4eb4fULL;

// First cell difference_estimate() reads: below it the mapper's density
// departs from 1/(1 + i/2) by enough to swamp the variance it measures.
constexpr std::uint64_t kEstimateFirstCell = 8;

// Largest gap the mapper will take in one step. Honest gaps fit easily
// (they are < 2^32 · idx); the clamp only matters for keeping the
// double→uint64 conversion well defined.
constexpr double kMaxGap = 9.0e15;

[[nodiscard]] std::uint64_t peel_key(const Digest32& digest, std::int64_t dir,
                                     std::uint64_t salt) noexcept {
  const std::uint64_t base =
      util::hash64(util::ByteView(digest.data(), digest.size()), salt ^ kCheckDomain);
  return util::mix64(base ^ (dir > 0 ? 0x5bf03635aULL : 0xa9e4f1c2dULL));
}

}  // namespace

std::uint64_t coded_symbol_check(const Digest32& digest, std::uint64_t salt) noexcept {
  return util::hash64(util::ByteView(digest.data(), digest.size()),
                      salt ^ kCheckDomain);
}

std::uint64_t coded_symbol_map_seed(const Digest32& digest,
                                    std::uint64_t salt) noexcept {
  return util::hash64(util::ByteView(digest.data(), digest.size()), salt ^ kMapDomain);
}

std::uint64_t IndexMapper::next() noexcept {
  // The riblt recurrence: one multiplicative-congruential step, then a gap
  // proportional to the current index scaled by (2^32/sqrt(r+1) - 1) for the
  // fresh PRNG draw r. With u = r/2^64 uniform, the next index is roughly
  // (idx+1.5)/sqrt(u): multiplicative growth with E[log step] = 1/2, so an
  // item visits ~2·ln(M) of the first M indices.
  prng_ *= 0xda942042e4dd58b5ULL;
  const double r = static_cast<double>(prng_);
  double gap = std::ceil((static_cast<double>(idx_) + 1.5) *
                         (4294967296.0 / std::sqrt(r + 1.0) - 1.0));
  // Clamp: r near 2^64 yields gap <= 0 (the sequence must strictly advance),
  // and r near 0 yields gaps beyond exact double range.
  if (!(gap >= 1.0)) gap = 1.0;
  if (gap > kMaxGap) gap = kMaxGap;
  idx_ += static_cast<std::uint64_t>(gap);
  return idx_;
}

void IndexQueue::grow() {
  const std::size_t horizon = heads_.size();
  heads_.resize(2 * horizon, kNil);
  std::uint32_t id = std::exchange(overflow_[overflow_list(horizon)], kNil);
  while (id != kNil) {
    Link& link = links_[id];
    const std::uint32_t following = link.next;
    link.next = std::exchange(heads_[link.key], id);
    id = following;
  }
}

std::size_t IndexQueue::overflow_size() const noexcept {
  std::size_t count = 0;
  for (std::uint32_t head : overflow_) {
    for (std::uint32_t id = head; id != kNil; id = links_[id].next) ++count;
  }
  return count;
}

void RatelessEncoder::add_item(const Digest32& digest) {
  const std::uint64_t check = coded_symbol_check(digest, salt_);
  Source src{digest, check, IndexMapper(coded_symbol_map_seed(digest, salt_))};
  queue_.push(static_cast<std::uint32_t>(sources_.size()), src.mapper.current());
  sources_.push_back(std::move(src));
  set_check_ ^= check;
}

CodedSymbol RatelessEncoder::next_symbol() {
  CodedSymbol out;
  queue_.drain(next_, [&](std::uint32_t id) {
    Source& src = sources_[id];
    out.apply(src.digest, src.check, +1);
    return src.mapper.next();
  });
  ++next_;
  return out;
}

void RatelessDecoder::track(const Digest32& digest, std::uint64_t check,
                            IndexMapper mapper, std::int64_t dir) {
  queue_.push(static_cast<std::uint32_t>(tracked_.size()), mapper.current());
  tracked_.push_back(Tracked{digest, check, mapper, dir});
}

void RatelessDecoder::add_local(const Digest32& digest) {
  track(digest, coded_symbol_check(digest, salt_),
        IndexMapper(coded_symbol_map_seed(digest, salt_)), -1);
}

void RatelessDecoder::add_symbol(const CodedSymbol& symbol) {
  if (malformed_) return;
  const std::uint64_t index = received_++;
  // Difference the arrival against everything we already know: our own set
  // and every item recovered so far. nonzero_ counts cells by value, so one
  // zero test after the last update counts the same as one around each.
  CodedSymbol& cell = cells_.emplace_back(symbol);
  queue_.drain(index, [&](std::uint32_t id) {
    Tracked& item = tracked_[id];
    cell.apply(item.digest, item.check, item.dir);
    ++ops_;
    return item.mapper.next();
  });
  if (!cell.is_zero()) ++nonzero_;
  enqueue_if_candidate(index);
  peel();
  if (over_budget()) malformed_ = true;
}

double RatelessDecoder::difference_estimate(
    std::int64_t host_minus_local) const noexcept {
  const auto found_pos = static_cast<double>(positives_.size());
  const auto found_neg = static_cast<double>(negatives_.size());
  const double s = static_cast<double>(host_minus_local) - (found_pos - found_neg);
  double sum = 0;
  for (std::size_t i = kEstimateFirstCell; i < cells_.size(); ++i) {
    const double rho = 1.0 / (1.0 + static_cast<double>(i) / 2.0);
    const double dev = static_cast<double>(cells_[i].count) - s * rho;
    sum += dev * dev / (rho * (1.0 - rho));
  }
  const double residual =
      cells_.size() > kEstimateFirstCell
          ? sum / static_cast<double>(cells_.size() - kEstimateFirstCell)
          : 0.0;
  return found_pos + found_neg + residual;
}

void RatelessDecoder::touch_cell(std::uint64_t index, const Digest32& digest,
                                 std::uint64_t check, std::int64_t dir) {
  CodedSymbol& cell = cells_[index];
  const bool was_zero = cell.is_zero();
  cell.apply(digest, check, dir);
  const bool now_zero = cell.is_zero();
  if (was_zero && !now_zero) {
    ++nonzero_;
  } else if (!was_zero && now_zero) {
    --nonzero_;
  }
  ++ops_;
}

void RatelessDecoder::enqueue_if_candidate(std::uint64_t index) {
  const CodedSymbol& cell = cells_[index];
  // Cheap pre-filter; the hash-backed purity test runs when the worklist
  // entry is popped (the cell may have changed again by then anyway).
  if (cell.count == 1 || cell.count == -1) worklist_.push_back(index);
}

void RatelessDecoder::peel() {
  while (!worklist_.empty() && !malformed_) {
    const std::uint64_t index = worklist_.back();
    worklist_.pop_back();
    const CodedSymbol cell = cells_[index];
    if (cell.count != 1 && cell.count != -1) continue;
    if (cell.check != coded_symbol_check(cell.sum, salt_)) continue;
    const std::int64_t dir = cell.count;
    const Digest32 digest = cell.sum;
    const std::uint64_t check = cell.check;
    // §6.1-style defense: a digest peeling twice in the same direction means
    // the stream is inconsistent (an honest encoder cancels each recovered
    // item everywhere) — without this an adversary can induce endless
    // recover/re-recover churn.
    if (!peeled_keys_.insert(peel_key(digest, dir, salt_)).second) {
      malformed_ = true;
      return;
    }
    // Cancel the item from every consumed cell it participates in; cells it
    // will participate in later cancel it as they arrive.
    IndexMapper mapper(coded_symbol_map_seed(digest, salt_));
    std::uint64_t at = mapper.current();
    while (at < received_) {
      touch_cell(at, digest, check, -dir);
      enqueue_if_candidate(at);
      at = mapper.next();
      if (over_budget()) {
        malformed_ = true;
        return;
      }
    }
    track(digest, check, mapper, -dir);
    (dir > 0 ? positives_ : negatives_).push_back(digest);
  }
}

bool RatelessDecoder::over_budget() const noexcept {
  // Every tracked item (local + recovered) touches ~2·ln(M) of the first M
  // cells, plus one op per arriving symbol. Budget that with a generous
  // constant factor; honest streams sit far below, while a hostile stream
  // that manufactures unbounded peeling work trips it in bounded time.
  const std::uint64_t tracked = tracked_.size() + 1;
  const std::uint64_t log_m =
      static_cast<std::uint64_t>(std::bit_width(received_ + 1)) + 4;
  const std::uint64_t cap = 4096 + 16 * received_ + 32 * tracked * log_m;
  return ops_ > cap;
}

}  // namespace graphene::iblt
