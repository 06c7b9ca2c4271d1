#include "obs/flight_recorder.hpp"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "util/base64.hpp"
#include "util/sync.hpp"

namespace graphene::obs {

const char* to_string(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kMsgSent:
      return "msg_sent";
    case FlightEventKind::kMsgReceived:
      return "msg_received";
    case FlightEventKind::kDecode:
      return "decode";
    case FlightEventKind::kError:
      return "error";
    case FlightEventKind::kNote:
      return "note";
  }
  return "note";
}

bool kind_from_string(std::string_view s, FlightEventKind* out) noexcept {
  for (const auto kind :
       {FlightEventKind::kMsgSent, FlightEventKind::kMsgReceived, FlightEventKind::kDecode,
        FlightEventKind::kError, FlightEventKind::kNote}) {
    if (s == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

double FlightEvent::attr(std::string_view key, double fallback) const noexcept {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return fallback;
}

std::string FlightEvent::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("seq");
  w.number(seq);
  w.key("t_ns");
  w.number(t_ns);
  w.key("kind");
  w.string(to_string(kind));
  w.key("label");
  w.string(label);
  if (!attrs.empty()) {
    w.key("attrs");
    w.begin_object();
    for (const auto& [k, v] : attrs) {
      w.key(k);
      w.number(v);
    }
    w.end_object();
  }
  if (!wire.empty()) {
    w.key("wire_b64");
    w.string(util::base64_encode(wire));
  }
  w.end_object();
  return w.take();
}

FlightEvent FlightEvent::from_json(const json::Value& doc) {
  if (!doc.is_object()) throw json::ParseError("flight event: expected object");
  FlightEvent e;
  e.seq = static_cast<std::uint64_t>(doc.at("seq").number);
  e.t_ns = static_cast<std::uint64_t>(doc.at("t_ns").number);
  if (!kind_from_string(doc.at("kind").string, &e.kind)) {
    throw json::ParseError("flight event: unknown kind \"" + doc.at("kind").string + "\"");
  }
  e.label = doc.at("label").string;
  if (doc.contains("attrs")) {
    const json::Value& attrs = doc.at("attrs");
    if (!attrs.is_object()) throw json::ParseError("flight event: attrs must be an object");
    e.attrs.reserve(attrs.object.size());
    for (const auto& [k, v] : attrs.object) {
      if (!v.is_number()) throw json::ParseError("flight event: attr values must be numbers");
      e.attrs.emplace_back(k, v.number);
    }
  }
  if (doc.contains("wire_b64")) {
    e.wire = util::base64_decode(doc.at("wire_b64").string);
  }
  return e;
}

void FlightRecorder::record(FlightEvent event) {
  const std::uint64_t now = monotonic_ns();
  const util::MutexLock lock(mu_);
  if (!enabled_) return;
  event.seq = next_seq_++;
  event.t_ns = now;
  if (!wire_capture_) event.wire.clear();
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    // Overwrite the oldest slot in place. Readers pay the head-index
    // bookkeeping instead of this hot path paying an O(capacity) rotate —
    // every protocol message lands here, readers run once per dump.
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % ring_.size();
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  const util::MutexLock lock(mu_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  const util::MutexLock lock(mu_);
  return ring_.size();
}

std::uint64_t FlightRecorder::total_recorded() const {
  const util::MutexLock lock(mu_);
  return next_seq_;
}

std::uint64_t FlightRecorder::dropped() const {
  const util::MutexLock lock(mu_);
  return next_seq_ - ring_.size();
}

void FlightRecorder::set_enabled(bool enabled) {
  const util::MutexLock lock(mu_);
  enabled_ = enabled;
}

bool FlightRecorder::enabled() const {
  const util::MutexLock lock(mu_);
  return enabled_;
}

void FlightRecorder::set_wire_capture(bool capture) {
  const util::MutexLock lock(mu_);
  wire_capture_ = capture;
}

bool FlightRecorder::wire_capture() const {
  const util::MutexLock lock(mu_);
  return wire_capture_;
}

void FlightRecorder::clear() {
  const util::MutexLock lock(mu_);
  ring_.clear();
  head_ = 0;
  next_seq_ = 0;
}

}  // namespace graphene::obs
