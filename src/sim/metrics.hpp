// Small statistics accumulator for benches (means and 95% CIs).
#pragma once

#include <cstdint>

namespace graphene::sim {

/// Streaming mean/variance (Welford) with a normal-approximation 95% CI.
class Accumulator {
 public:
  void add(double sample) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Half-width of the 95% confidence interval around the mean.
  [[nodiscard]] double ci95() const noexcept;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace graphene::sim
