// Umbrella header for the telemetry subsystem, plus ScopedSpan — the one
// primitive protocol code uses to instrument a stage.
//
// Instrumentation contract:
//   * every engine takes an optional `obs::Registry*` (via ProtocolConfig or
//     a setter); nullptr means telemetry is off and costs one branch;
//   * manual instrumentation blocks test that pointer directly
//     (`if (obs::Registry* reg = cfg.obs) { ... }`), and flight events go
//     through obs::flight(), which also honours the recorder's runtime switch;
//   * each protocol stage opens a ScopedSpan which (a) appends a TraceSpan
//     to the registry's TraceSink and (b) feeds the `graphene_stage_ns`
//     histogram family labeled by stage.
//
// Stage names emitted by block relay, in protocol order (most run inside
// the Graphene engine, graphene/engine.hpp, called from these methods):
//   p1_optimize, sfilter_build, iblt_build   (Sender::encode)
//   p1_candidates, p1_peel                   (ReceiveSession::receive_block)
//   thm_bounds, rfilter_build                (ReceiveSession::build_request)
//   p2_serve, p2_fallback                    (Sender::serve)
//   p2_peel, pingpong                        (ReceiveSession::complete)
//   repair_serve                             (Sender::serve_repair)
//   repair                                   (ReceiveSession::complete_repair)
//   error                                    (diagnostic context on throws)
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace graphene::obs {

/// RAII protocol-stage recorder. With a null registry every member is a
/// cheap early-out.
class ScopedSpan {
 public:
  ScopedSpan(Registry* reg, std::string_view stage) : reg_(reg) {
    if (reg_ == nullptr) return;
    span_.stage = stage;
    span_.start_ns = monotonic_ns();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric attribute (sizing input, outcome, byte count).
  template <typename T>
  void attr(std::string_view key, T value) {
    if (reg_ == nullptr) return;
    span_.attrs.emplace_back(std::string(key), static_cast<double>(value));
  }

  ~ScopedSpan() {
    if (reg_ == nullptr) return;
    span_.dur_ns = monotonic_ns() - span_.start_ns;
    reg_->histogram("graphene_stage_ns", {{"stage", span_.stage}})
        .observe(span_.dur_ns);
    reg_->trace().record(std::move(span_));
  }

 private:
  Registry* reg_;
  TraceSpan span_;
};

/// Gate for flight-event blocks: the registry's recorder when a registry is
/// attached and its recorder is enabled, else nullptr, so the block
/// (including any msg.serialize() cost) is skipped. Call sites write
///   if (obs::FlightRecorder* fr = obs::flight(reg)) obs::record_msg(*fr, ...);
[[nodiscard]] inline FlightRecorder* flight(Registry* reg) {
  if (reg == nullptr) return nullptr;
  FlightRecorder& rec = reg->recorder();
  return rec.enabled() ? &rec : nullptr;
}

/// A flight event's numeric attributes, in the order they are recorded.
using FlightAttrs = std::initializer_list<std::pair<const char*, double>>;

/// Records one event on the recorder obs::flight() returned, so attribute
/// values are computed only while one listens. `wire` holds the bytes of
/// the message the event describes: empty for none, and for any message
/// while !fr.wire_capture().
inline void record_event(FlightRecorder& fr, FlightEventKind kind, const char* label,
                         FlightAttrs attrs, util::Bytes wire = {}) {
  FlightEvent e;
  e.kind = kind;
  e.label = label;
  e.attrs.reserve(attrs.size());
  for (const auto& [key, value] : attrs) e.attrs.emplace_back(key, value);
  e.wire = std::move(wire);
  fr.record(std::move(e));
}

/// record_event() for an event that describes `msg`: serializes it only
/// when the recorder captures wire bytes.
template <typename Msg>
void record_msg(FlightRecorder& fr, FlightEventKind kind, const char* label,
                const Msg& msg, FlightAttrs attrs) {
  record_event(fr, kind, label, attrs,
               fr.wire_capture() ? msg.serialize() : util::Bytes{});
}

}  // namespace graphene::obs

