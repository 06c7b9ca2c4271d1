// Protocol flight recorder: a bounded ring buffer of structured protocol
// events, the raw material for post-mortem forensics.
//
// Trace spans (obs/trace.hpp) answer "how long did each stage take"; flight
// events answer "what exactly crossed the wire and what did the decoder do
// with it". Each event carries a kind (message sent/received, decode
// outcome, error, note), a label (wire command or stage), flat numeric
// attributes (component byte breakdowns, sizing params, peel progress), and
// — for message events — the raw wire bytes, so a failed session can be
// dumped as a self-contained, replayable forensic capture
// (src/graphene/forensics.hpp).
//
// The recorder lives on the Registry (Registry::recorder()), so it rides the
// existing ProtocolConfig::obs opt-in: a null registry costs one branch, and
// set_enabled(false) keeps the registry's metrics while record() drops
// events. The ring is bounded (default 256 events) so a long-lived session
// cannot grow without limit; overwritten events are counted in dropped().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace graphene::obs {

namespace json {
class Value;
}  // namespace json

enum class FlightEventKind : std::uint8_t {
  kMsgSent,      ///< this side produced a wire message
  kMsgReceived,  ///< this side consumed a wire message
  kDecode,       ///< an IBLT decode attempt finished (success or not)
  kError,        ///< a ProtocolError was raised
  kNote,         ///< anything else worth a timeline entry (repair trigger, abort)
};

[[nodiscard]] const char* to_string(FlightEventKind kind) noexcept;
/// Inverse of to_string; false when `s` names no kind.
[[nodiscard]] bool kind_from_string(std::string_view s, FlightEventKind* out) noexcept;

/// One protocol event. Attribute keys must not collide with the reserved
/// top-level JSON keys ("seq", "t_ns", "kind", "label", "wire_b64").
struct FlightEvent {
  std::uint64_t seq = 0;  ///< assigned by the recorder; total order per recorder
  std::uint64_t t_ns = 0; ///< obs::monotonic_ns() at record time
  FlightEventKind kind = FlightEventKind::kNote;
  std::string label;      ///< wire command ("grblk") or stage ("p1")
  std::vector<std::pair<std::string, double>> attrs;
  util::Bytes wire;       ///< raw message bytes; empty for non-message events

  [[nodiscard]] double attr(std::string_view key, double fallback = 0.0) const noexcept;

  /// Compact single-line JSON object; wire bytes as base64 under "wire_b64"
  /// (omitted when empty).
  [[nodiscard]] std::string to_json() const;
  /// Strict inverse of to_json; throws json::ParseError / DeserializeError
  /// on schema violations.
  [[nodiscard]] static FlightEvent from_json(const json::Value& doc);
};

/// Thread-safe bounded ring of FlightEvents. Oldest events are overwritten
/// once the capacity given at construction is reached; sequence numbers keep
/// counting, so dropped() = total_recorded() - size().
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event (stamps seq and t_ns). No-op when the recorder is
  /// disabled.
  void record(FlightEvent event) EXCLUDES(mu_);

  /// Events currently held, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const EXCLUDES(mu_);
  [[nodiscard]] std::size_t size() const EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t total_recorded() const EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t dropped() const EXCLUDES(mu_);

  /// Runtime kill switch (default on): lets a benchmark or a high-traffic
  /// deployment keep the Registry's metrics while skipping event capture.
  void set_enabled(bool enabled) EXCLUDES(mu_);
  [[nodiscard]] bool enabled() const EXCLUDES(mu_);

  /// Skips storing wire bytes (attrs and outcomes still recorded) — trades
  /// replayability for memory on hot paths.
  void set_wire_capture(bool capture) EXCLUDES(mu_);
  [[nodiscard]] bool wire_capture() const EXCLUDES(mu_);

  void clear() EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  std::vector<FlightEvent> ring_ GUARDED_BY(mu_);  // circular; oldest at head_
  std::size_t head_ GUARDED_BY(mu_) = 0;
  const std::size_t capacity_;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  bool enabled_ GUARDED_BY(mu_) = true;
  bool wire_capture_ GUARDED_BY(mu_) = true;
};

}  // namespace graphene::obs
