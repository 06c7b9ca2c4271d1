// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around the public calls it makes into
// each layer; nothing inside the library is instrumented. A span holds its
// name, start and end (steady clock, ns), the span open when it began
// (its parent) and the session it belongs to. Spans stay in memory and are
// written once, at exit, in the format documented in perfbench/README.md
// ("perfbench.trace.v1"); metrics.py turns them into per-layer self times.
//
// Single-threaded by design: the traced runs replay sessions in-process on
// the calling thread, so spans nest strictly and need no locking.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffU;

  /// Opens a span named `name` (interned) in `session`; returns its id.
  std::uint32_t begin(const char* name, std::uint64_t session);
  void end(std::uint32_t id);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  void write(graphene::obs::json::Writer& w) const;

 private:
  struct Span {
    std::uint32_t parent = kNoParent;
    std::uint32_t name = 0;
    std::uint64_t session = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  std::uint32_t intern(const char* name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<const char*> name_ptrs_;  ///< interning fast path (string literals)
  std::vector<std::uint32_t> open_;     ///< stack of open span ids
};

/// Writes the "trace" member of a traced report (perfbench.trace.v1): the
/// traced session count, the root span name of a traced session, the wall
/// times of the untraced replay (and of the daemon phase, empty for an
/// in-process workload), the exact counters and the spans.
void write_trace(graphene::obs::json::Writer& w, std::uint64_t sessions, const char* root,
                 const std::vector<std::uint64_t>& untraced_ns,
                 const std::vector<std::uint64_t>& e2e_wall_ns, const Counters& counters,
                 const Tracer& tracer);

/// RAII span; a null tracer records nothing (the untraced replays).
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t session)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, session) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
