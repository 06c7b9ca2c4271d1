// Flajolet–Martin strata estimator (Eppstein et al., SIGCOMM 2011) for the
// size of a symmetric difference — the component the Difference Digest
// baseline (§5.3.2) sends before sizing its IBLT, factored out as a reusable
// structure.
//
// Each element lands in stratum i (i = trailing zero bits of a seeded hash)
// with probability 2^{-(i+1)}; each stratum is a fixed-size IBLT. To
// estimate |A △ B|, subtract strata pairwise and decode from the deepest
// stratum down: the first failing stratum i scales everything recovered
// below it by 2^{i+1}.
#pragma once

#include <cstdint>
#include <vector>

#include "iblt/iblt.hpp"

namespace graphene::iblt {

/// Estimator tuning; nested-class default-argument rules push this to
/// namespace scope.
struct StrataConfig {
  std::uint32_t strata_cells = 80;
  std::uint32_t k = 4;
  std::uint64_t seed = 0x57a7a;
};

class StrataEstimator {
 public:
  using Config = StrataConfig;

  /// `universe_hint` sizes the number of strata (⌈log2(hint)⌉ + 1).
  StrataEstimator(std::uint64_t universe_hint, Config config = {});

  void insert(std::uint64_t key);

  /// Estimated |this △ other|, never below 1. Both estimators must share
  /// configuration (checked).
  [[nodiscard]] std::uint64_t estimate_difference(const StrataEstimator& other) const;

  [[nodiscard]] std::uint32_t strata_count() const noexcept {
    return static_cast<std::uint32_t>(strata_.size());
  }

  /// Bytes the estimator takes on a wire: a one-byte stratum count plus each
  /// stratum's IBLT. The Difference Digest baseline charges this size; no
  /// message carries an estimator, so it has no serializer.
  [[nodiscard]] std::size_t serialized_size() const noexcept;

 private:
  [[nodiscard]] std::uint32_t stratum_of(std::uint64_t key) const noexcept;

  Config config_;
  std::vector<Iblt> strata_;
};

}  // namespace graphene::iblt
