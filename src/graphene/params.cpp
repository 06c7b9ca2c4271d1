#include "graphene/params.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "bloom/bloom_math.hpp"
#include "graphene/bounds.hpp"
#include "iblt/param_cache.hpp"
#include "iblt/param_table.hpp"

namespace graphene::core {

namespace {

/// Candidate grid over a budget in [1, limit]: exhaustive below 128 (where
/// ceiling effects dominate), geometric above, then the caller refines
/// locally around the winner.
std::vector<std::uint64_t> candidate_grid(std::uint64_t limit) {
  std::vector<std::uint64_t> out;
  const std::uint64_t dense = std::min<std::uint64_t>(limit, 128);
  for (std::uint64_t v = 1; v <= dense; ++v) out.push_back(v);
  double v = 128.0;
  while (static_cast<std::uint64_t>(v) < limit) {
    v *= 1.08;
    out.push_back(std::min(limit, static_cast<std::uint64_t>(v)));
  }
  if (out.empty() || out.back() != limit) out.push_back(limit);
  return out;
}

/// 2^(−j/8) for j = 0..7, the steps of the f_R grid within one octave. They
/// are spelled out so that the grid, and the request bytes built from it, do
/// not depend on the platform's exp2.
constexpr std::array<double, 8> kEighthOctaves = {
    1.0,                0.9170040432046712, 0.8408964152537145, 0.7711054127039704,
    0.7071067811865476, 0.6484197773255048, 0.5946035575013605, 0.5452538663326288};

/// The f_R grid ends at 2^−40 (40 hashes per item). The completion scan
/// stops far above it unless round_trip_bytes dwarfs every filter.
constexpr int kFprSteps = 8 * 40;

}  // namespace

double repair_probability(double fpr_r, std::uint64_t missing) noexcept {
  if (missing == 0 || fpr_r <= 0.0) return 0.0;
  if (fpr_r >= 1.0) return 1.0;
  return -std::expm1(static_cast<double>(missing) * std::log1p(-fpr_r));
}

double eq3_continuous_a(std::uint64_t n, double tau) noexcept {
  constexpr double kLn2Sq = 0.6931471805599453 * 0.6931471805599453;
  const double r = static_cast<double>(iblt::Iblt::kCellBytes);
  return static_cast<double>(n) / (8.0 * r * tau * kLn2Sq);
}

Protocol1Params optimize_protocol1(std::uint64_t n, std::uint64_t m,
                                   const ProtocolConfig& cfg) {
  Protocol1Params best;
  const std::uint64_t diff = m > n ? m - n : 0;

  if (diff == 0) {
    // m = n: an FPR-1 filter (not sent) plus a minimal IBLT (§5.1's
    // "approaches an IBLT-only solution" limit).
    best.fpr = 1.0;
    best.a = 0;
    best.a_star = 1;
    best.iblt = iblt::cached_params(cfg.param_cache, best.a_star, cfg.fail_denom);
    best.bloom_bytes = bloom::serialized_bytes(n, 1.0);
    best.iblt_bytes = iblt::Iblt::serialized_size_for(best.iblt.cells);
    return best;
  }

  auto evaluate = [&](std::uint64_t a) -> Protocol1Params {
    Protocol1Params p;
    p.a = std::clamp<std::uint64_t>(a, 1, diff);
    p.fpr = std::min(1.0, static_cast<double>(p.a) / static_cast<double>(diff));
    // The discrete filter's bit/hash rounding can push its *effective* FPR
    // above the target; size the IBLT from the worse of the two or decode
    // failures exceed 1−β at large m/n (observed on the Fig. 13 workload).
    const std::uint64_t bits = bloom::optimal_bits(n, p.fpr);
    const double eff =
        bloom::expected_fpr(bits, bloom::optimal_hash_count(bits, std::max<std::uint64_t>(n, 1)), n);
    const double a_eff =
        std::max(static_cast<double>(p.a), eff * static_cast<double>(diff));
    p.a_star = bound_a_star(a_eff, cfg.beta);
    p.iblt = iblt::cached_params(cfg.param_cache, p.a_star, cfg.fail_denom);
    p.bloom_bytes = bloom::serialized_bytes(n, p.fpr);
    p.iblt_bytes = iblt::Iblt::serialized_size_for(p.iblt.cells);
    return p;
  };

  best = evaluate(1);
  for (const std::uint64_t a : candidate_grid(diff)) {
    const Protocol1Params p = evaluate(a);
    if (p.total_bytes() < best.total_bytes()) best = p;
  }
  // Local refinement: the grid is coarse above 128.
  const std::uint64_t center = best.a;
  const std::uint64_t lo = center > 16 ? center - 16 : 1;
  for (std::uint64_t a = lo; a <= std::min(diff, center + 16); ++a) {
    const Protocol1Params p = evaluate(a);
    if (p.total_bytes() < best.total_bytes()) best = p;
  }
  return best;
}

Protocol2Params optimize_protocol2(std::uint64_t z, std::uint64_t m, std::uint64_t n,
                                   double f_s, const ProtocolConfig& cfg) {
  Protocol2Params best;
  best.x_star = bound_x_star(z, m, n, f_s, cfg.beta);
  best.y_star = bound_y_star(m, best.x_star, f_s, cfg.beta);

  // §3.3.2 special case: z ≈ m and f_R would be pushed to ~1 — the receiver
  // pins f_R instead and the roles reverse (sender sends filter F).
  const std::uint64_t missing = n > best.x_star ? n - best.x_star : 0;
  if (missing == 0 || best.y_star >= m || z == m) {
    best.reversed = true;
    best.fpr = cfg.near_equal_fpr;
    best.b = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(cfg.near_equal_fpr * static_cast<double>(std::max<std::uint64_t>(
                                                1, n - std::min(n, best.x_star))))));
    best.iblt = iblt::cached_params(cfg.param_cache, best.b + best.y_star, cfg.fail_denom);
    best.bloom_bytes = bloom::serialized_bytes(z, best.fpr);
    best.iblt_bytes = iblt::Iblt::serialized_size_for(best.iblt.cells);
    return best;
  }

  // J covers b of R's false positives plus S's y*; R is sized for z.
  const auto priced = [&](double fpr, std::uint64_t b) {
    Protocol2Params p = best;
    p.fpr = fpr;
    p.b = b;
    p.iblt = iblt::cached_params(cfg.param_cache, p.b + p.y_star, cfg.fail_denom);
    p.bloom_bytes = bloom::serialized_bytes(z, p.fpr);
    p.iblt_bytes = iblt::Iblt::serialized_size_for(p.iblt.cells);
    return p;
  };

  if (cfg.round_trip_bytes > 0) {
    // Completion objective: a missing transaction that passes R falsely is
    // in neither the answer nor the receiver's pool, so it costs the repair
    // round. Each f_R on the grid gets the β-assured bound on those false
    // positives as its b (no more than n − x* can occur).
    const double trip = static_cast<double>(cfg.round_trip_bytes);
    const auto at = [&](double fpr) {
      return priced(fpr, std::min(bound_a_star(fpr * static_cast<double>(missing), cfg.beta),
                                  missing));
    };
    const auto cost = [&](const Protocol2Params& p) {
      return static_cast<double>(p.total_bytes()) + repair_probability(p.fpr, missing) * trip;
    };
    Protocol2Params chosen = at(1.0);
    double chosen_cost = cost(chosen);
    for (int k = 1; k <= kFprSteps; ++k) {
      const Protocol2Params p =
          at(std::ldexp(kEighthOctaves[static_cast<std::size_t>(k % 8)], -(k / 8)));
      // |R| only grows as f_R falls and is a lower bound on the cost, so no
      // point further down the grid can win.
      if (static_cast<double>(p.bloom_bytes) >= chosen_cost) break;
      if (const double c = cost(p); c < chosen_cost) {
        chosen = p;
        chosen_cost = c;
      }
    }
    return chosen;
  }

  const auto evaluate = [&](std::uint64_t b) {
    const std::uint64_t clamped = std::clamp<std::uint64_t>(b, 1, missing);
    return priced(
        std::min(1.0, static_cast<double>(clamped) / static_cast<double>(missing)), clamped);
  };

  best = evaluate(1);
  for (const std::uint64_t b : candidate_grid(missing)) {
    const Protocol2Params p = evaluate(b);
    if (p.total_bytes() < best.total_bytes()) best = p;
  }
  const std::uint64_t center = best.b;
  const std::uint64_t lo = center > 16 ? center - 16 : 1;
  for (std::uint64_t b = lo; b <= std::min(missing, center + 16); ++b) {
    const Protocol2Params p = evaluate(b);
    if (p.total_bytes() < best.total_bytes()) best = p;
  }
  return best;
}

}  // namespace graphene::core
