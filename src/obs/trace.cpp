#include "obs/trace.hpp"

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace graphene::obs {

double TraceSpan::attr(std::string_view key, double fallback) const noexcept {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return fallback;
}

void TraceSink::record(TraceSpan span) {
  const util::MutexLock lock(mu_);
  span.seq = next_seq_++;
  spans_.push_back(std::move(span));
}

std::vector<TraceSpan> TraceSink::spans() const {
  const util::MutexLock lock(mu_);
  return spans_;
}

std::vector<std::string> TraceSink::stages() const {
  const util::MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(spans_.size());
  for (const TraceSpan& s : spans_) out.push_back(s.stage);
  return out;
}

bool TraceSink::find(std::string_view stage, TraceSpan* out) const {
  const util::MutexLock lock(mu_);
  for (const TraceSpan& s : spans_) {
    if (s.stage == stage) {
      if (out != nullptr) *out = s;
      return true;
    }
  }
  return false;
}

std::size_t TraceSink::size() const {
  const util::MutexLock lock(mu_);
  return spans_.size();
}

void TraceSink::clear() {
  const util::MutexLock lock(mu_);
  spans_.clear();
  next_seq_ = 0;
}

}  // namespace graphene::obs
