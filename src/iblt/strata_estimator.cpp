#include "iblt/strata_estimator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/hash.hpp"

namespace graphene::iblt {

StrataEstimator::StrataEstimator(std::uint64_t universe_hint, Config config)
    : config_(config) {
  const auto hint = std::max<std::uint64_t>(universe_hint, 2);
  const auto num =
      static_cast<std::uint32_t>(std::ceil(std::log2(static_cast<double>(hint)))) + 1;
  strata_.reserve(num);
  for (std::uint32_t s = 0; s < num; ++s) {
    strata_.emplace_back(IbltParams{config_.k, config_.strata_cells}, config_.seed + s);
  }
}

std::uint32_t StrataEstimator::stratum_of(std::uint64_t key) const noexcept {
  const std::uint64_t h = util::mix64(key ^ config_.seed);
  const auto tz = static_cast<std::uint32_t>(std::countr_zero(h));
  return std::min(tz, static_cast<std::uint32_t>(strata_.size()) - 1);
}

void StrataEstimator::insert(std::uint64_t key) {
  strata_[stratum_of(key)].insert(key);
}

std::uint64_t StrataEstimator::estimate_difference(const StrataEstimator& other) const {
  if (other.strata_.size() != strata_.size() || other.config_.seed != config_.seed) {
    throw std::invalid_argument("StrataEstimator: mismatched configuration");
  }
  double estimate = 0.0;
  for (std::uint32_t s = static_cast<std::uint32_t>(strata_.size()); s-- > 0;) {
    const DecodeResult dec = strata_[s].subtract(other.strata_[s]).decode();
    if (!dec.success) {
      estimate *= std::pow(2.0, static_cast<double>(s) + 1.0);
      break;
    }
    estimate += static_cast<double>(dec.positives.size() + dec.negatives.size());
  }
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(estimate));
}

std::size_t StrataEstimator::serialized_size() const noexcept {
  std::size_t total = 1;
  for (const Iblt& s : strata_) total += s.serialized_size();
  return total;
}

}  // namespace graphene::iblt
