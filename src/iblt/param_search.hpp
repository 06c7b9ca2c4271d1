// Algorithm 1 (Fig. 9): statistically-certified binary search for the
// smallest IBLT that decodes j items with probability at least p.
//
// For each candidate cell count c the decode rate is estimated by sampling
// hypergraph peelings until the Wilson confidence interval around the
// observed success proportion separates from p (or a trial cap is reached).
// Monotonicity of the decode rate in c justifies the binary search; an outer
// loop tries each k in [k_min, k_max] and keeps the smallest table.
//
// A search runs on its caller's thread. Each binary search consumes exactly
// one draw from the caller's Rng, and every trial batch seeds its own Rng
// from that draw, the candidate size and the batch index, so the result is
// a pure function of the caller's Rng state. tools/gen_param_table runs
// independent searches on several threads.
#pragma once

#include <cstdint>
#include <optional>

#include "iblt/iblt.hpp"
#include "util/random.hpp"

namespace graphene::iblt {

struct SearchOptions {
  std::uint32_t k_min = 3;
  std::uint32_t k_max = 8;
  /// Trials before giving up on CI separation and deciding by point estimate.
  std::uint64_t max_trials = 20000;
  /// Trials per adaptive batch.
  std::uint64_t batch = 64;
};

/// Result of the inner binary search at a fixed k.
struct CellSearchResult {
  /// Smallest passing cell count, or nullopt if even 20·j cells fail.
  std::optional<std::uint64_t> cells;
  /// False when any decision along the search path hit max_trials without
  /// the Wilson CI separating from p — the answer is then a point-estimate
  /// call, not a statistically certified one. Raise max_trials to fix.
  bool certified = true;
};

/// Result of a full search across k.
struct SearchResult {
  IbltParams params;
  /// Point estimate of the decode rate at the returned size.
  double decode_rate = 0.0;
  /// AND of CellSearchResult::certified over every k tried (see above).
  bool certified = true;
};

/// Smallest c (multiple of k) such that j items decode with probability ≥ p
/// for a fixed k. `cells` is nullopt if even cmax = 20·j cells fail.
[[nodiscard]] CellSearchResult search_cells(std::uint64_t j, std::uint32_t k,
                                            double p, util::Rng& rng,
                                            const SearchOptions& opts = {});

/// Full Algorithm 1 with the outer k loop: smallest (k, c) meeting rate p.
[[nodiscard]] SearchResult search_params(std::uint64_t j, double p, util::Rng& rng,
                                         const SearchOptions& opts = {});

/// Measures the decode rate of a (j, k, c) configuration by direct sampling;
/// exposed for tests and the Fig. 7 benchmark. Consumes one draw from `rng`
/// and runs the trials in chunks, each seeded from (that draw, chunk index).
[[nodiscard]] double measure_decode_rate(std::uint64_t j, std::uint32_t k, std::uint64_t c,
                                         std::uint64_t trials, util::Rng& rng);

}  // namespace graphene::iblt
