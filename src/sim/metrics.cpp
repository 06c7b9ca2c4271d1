#include "sim/metrics.hpp"

#include <cmath>

namespace graphene::sim {

void Accumulator::add(double sample) noexcept {
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double Accumulator::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::ci95() const noexcept {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

}  // namespace graphene::sim
