#include "iblt/param_search.hpp"

#include <algorithm>

#include "iblt/hypergraph.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace graphene::iblt {

namespace {

/// Upper bracket for the binary search, as a multiple of j (cmax in Alg. 1).
constexpr std::uint64_t kCmaxFactor = 20;
/// z for the Wilson interval (1.96 ≈ 95%).
constexpr double kWilsonZ = 1.96;

/// Seed for trial batch `index` of the sampling run rooted at `root`.
/// Batches are keyed by their position in the fixed schedule, so a run's
/// trials depend only on its root.
std::uint64_t batch_seed(std::uint64_t root, std::uint64_t index) {
  return util::mix64(root ^ util::mix64(index + 0x6a09e667f3bcc909ULL));
}

struct RateDecision {
  bool meets = false;
  /// True when the Wilson CI separated from p before the trial cap.
  bool certified = true;
};

/// Adaptive decode-rate test: does configuration (j, k, c) meet rate p?
///
/// Runs up to ceil(max_trials / batch) batches, each seeded from (root,
/// batch index), and updates the Wilson interval after every batch,
/// stopping at the first one that separates it from p. Falls back to an
/// uncertified point-estimate call at the cap (Alg. 1's L-band exit).
RateDecision meets_rate(std::uint64_t j, std::uint32_t k, std::uint64_t c, double p,
                        std::uint64_t root, const SearchOptions& opts) {
  const std::uint64_t batch = std::max<std::uint64_t>(opts.batch, 1);
  const std::uint64_t total_batches =
      std::max<std::uint64_t>((opts.max_trials + batch - 1) / batch, 1);

  std::uint64_t successes = 0;
  std::uint64_t trials = 0;
  for (std::uint64_t b = 0; b < total_batches; ++b) {
    util::Rng rng(batch_seed(root, b));
    for (std::uint64_t t = 0; t < batch; ++t) {
      successes += hypergraph_decodes(j, k, c, rng) ? 1u : 0u;
    }
    trials += batch;
    const util::Interval ci = util::wilson_interval(successes, trials, kWilsonZ);
    if (ci.lo() >= p) return {true, true};
    if (ci.hi() <= p) return {false, true};
  }
  const double rate = static_cast<double>(successes) / static_cast<double>(trials);
  return {rate >= p, false};
}

std::uint64_t round_up_multiple(std::uint64_t v, std::uint64_t m) {
  return ((v + m - 1) / m) * m;
}

}  // namespace

CellSearchResult search_cells(std::uint64_t j, std::uint32_t k, double p,
                              util::Rng& rng, const SearchOptions& opts) {
  if (j == 0) return {k, true};  // One empty partition row; decodes trivially.

  // One draw per search; each candidate c derives its own root so revisiting
  // a size (across searches with the same seed) replays the same trials.
  const std::uint64_t root = rng.next();
  bool certified = true;
  const auto test = [&](std::uint64_t c) {
    const RateDecision d =
        meets_rate(j, k, c, p, util::mix64(root ^ util::mix64(c)), opts);
    certified = certified && d.certified;
    return d.meets;
  };

  // Search in units of k cells so every candidate stays a legal table size.
  std::uint64_t lo = 1;
  std::uint64_t hi = round_up_multiple(std::max<std::uint64_t>(j * kCmaxFactor, k), k) / k;
  if (!test(hi * k)) return {std::nullopt, certified};

  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (test(mid * k)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return {hi * k, certified};
}

SearchResult search_params(std::uint64_t j, double p, util::Rng& rng,
                           const SearchOptions& opts) {
  SearchResult best;
  best.params.cells = 0;
  for (std::uint32_t k = opts.k_min; k <= opts.k_max; ++k) {
    const CellSearchResult r = search_cells(j, k, p, rng, opts);
    best.certified = best.certified && r.certified;
    if (!r.cells) continue;
    if (best.params.cells == 0 || *r.cells < best.params.cells) {
      best.params = IbltParams{k, *r.cells};
    }
  }
  if (best.params.cells != 0) {
    best.decode_rate = measure_decode_rate(j, best.params.k, best.params.cells, 2000, rng);
  }
  return best;
}

double measure_decode_rate(std::uint64_t j, std::uint32_t k, std::uint64_t c,
                           std::uint64_t trials, util::Rng& rng) {
  if (trials == 0) return 0.0;
  const std::uint64_t root = rng.next();
  constexpr std::uint64_t kChunk = 256;
  const std::uint64_t chunks = (trials + kChunk - 1) / kChunk;
  std::uint64_t successes = 0;
  for (std::uint64_t i = 0; i < chunks; ++i) {
    util::Rng chunk_rng(batch_seed(root, i));
    const std::uint64_t n = std::min(kChunk, trials - i * kChunk);
    for (std::uint64_t t = 0; t < n; ++t) {
      successes += hypergraph_decodes(j, k, c, chunk_rng) ? 1u : 0u;
    }
  }
  return static_cast<double>(successes) / static_cast<double>(trials);
}

}  // namespace graphene::iblt
