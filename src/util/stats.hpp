// Statistical helpers used throughout the protocol and the IBLT optimizer.
//
//  * chernoff_delta      — solves Theorem 1/3's bound for δ given β.
//  * chernoff_upper_tail — the (e^δ/(1+δ)^{1+δ})^µ tail used by Theorem 2.
//  * wilson_interval     — the two-sided proportion confidence interval that
//                          Algorithm 1's conf_int() relies on.
#pragma once

#include <cstdint>

namespace graphene::util {

/// Solves δ = (s + sqrt(s² + 8s)) / 2 with s = -ln(1-β)/µ (Theorems 1 and 3).
/// Given µ expected Bernoulli successes, (1+δ)µ upper-bounds the observed
/// count with probability ≥ β.
[[nodiscard]] double chernoff_delta(double mu, double beta) noexcept;

/// Multiplicative Chernoff upper tail Pr[X ≥ (1+δ)µ] ≤ (e^δ / (1+δ)^{1+δ})^µ,
/// evaluated in log space for numerical stability. δ ≤ 0 returns 1.
[[nodiscard]] double chernoff_upper_tail(double delta, double mu) noexcept;

/// Two-sided Wilson score interval for `successes` out of `trials` at the
/// given z (default z = 1.96, ~95%). Returns half-width around the Wilson
/// midpoint; `lo`/`hi` convenience accessors included.
struct Interval {
  double center = 0.0;
  double half_width = 0.0;
  [[nodiscard]] double lo() const noexcept { return center - half_width; }
  [[nodiscard]] double hi() const noexcept { return center + half_width; }
};

[[nodiscard]] Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                       double z = 1.96) noexcept;

/// Exact one-sided Clopper–Pearson bounds for a binomial proportion: with
/// probability ≥ `confidence` the true success rate is ≥ the lower bound
/// (resp. ≤ the upper bound). Computed by bisection on the exact binomial
/// tail in log space — no incomplete-beta dependency — so the bounds are
/// conservative for any (successes, trials), including 0 and trials.
/// testkit::StatGate uses these to turn "N trials, s successes" into a
/// CI-gateable verdict about a theorem's promised rate.
[[nodiscard]] double clopper_pearson_lower(std::uint64_t successes, std::uint64_t trials,
                                           double confidence = 0.99) noexcept;
[[nodiscard]] double clopper_pearson_upper(std::uint64_t successes, std::uint64_t trials,
                                           double confidence = 0.99) noexcept;

/// log Pr[Bin(n, p) ≤ k] evaluated stably by summing pmf terms in log space.
[[nodiscard]] double log_binomial_cdf(std::uint64_t k, std::uint64_t n, double p) noexcept;

}  // namespace graphene::util
