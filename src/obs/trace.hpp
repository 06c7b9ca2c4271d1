// Structured run traces: one TraceSpan per protocol stage, collected by a
// TraceSink (sim's runs.jsonl writes each run's spans as one JSON array).
//
// A span records the stage name, when it started, how long it took, and a
// flat set of numeric attributes (sizing inputs, decode outcomes, byte
// counts). The per-run span sequence is the primary diagnostic artifact:
// a failed IBLT decode can be correlated with the Theorem-1 inputs that
// sized it by reading the preceding `p1_optimize` span of the same run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace graphene::obs {

/// One protocol stage. Attribute keys must not collide with the reserved
/// top-level keys ("seq", "stage", "start_ns", "dur_ns").
struct TraceSpan {
  std::uint64_t seq = 0;  ///< assigned by the sink; total order per sink
  std::string stage;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;

  /// Attribute lookup; NaN-free telemetry means 0.0 is the safe default.
  [[nodiscard]] double attr(std::string_view key, double fallback = 0.0) const noexcept;
};

/// Thread-safe append-only collection of spans.
class TraceSink {
 public:
  void record(TraceSpan span) EXCLUDES(mu_);

  [[nodiscard]] std::vector<TraceSpan> spans() const EXCLUDES(mu_);
  /// Stage names in record order — what the integration tests assert on.
  [[nodiscard]] std::vector<std::string> stages() const EXCLUDES(mu_);
  /// First span with the given stage name, if any.
  [[nodiscard]] bool find(std::string_view stage, TraceSpan* out = nullptr) const
      EXCLUDES(mu_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_);

  void clear() EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
};

}  // namespace graphene::obs
