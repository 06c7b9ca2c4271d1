// Internal flight-recorder helpers shared by the reconcile backends,
// mirroring block relay (src/graphene): message events carry the serialized
// wire bytes (when capture is on) so a failed reconciliation can be
// inspected the same way a failed block relay can.
#pragma once

#include <initializer_list>
#include <utility>

#include "obs/obs.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile::detail {

template <typename Msg>
void record_msg(obs::Registry* reg, obs::FlightEventKind kind, const char* label,
                const Msg& msg,
                std::initializer_list<std::pair<const char*, double>> attrs) {
  obs::FlightRecorder* fr = obs::flight(reg);
  if (fr == nullptr) return;
  obs::FlightEvent e;
  e.kind = kind;
  e.label = label;
  if (fr->wire_capture()) e.wire = msg.serialize();
  e.attrs.reserve(attrs.size());
  for (const auto& [k, v] : attrs) e.attrs.emplace_back(k, v);
  fr->record(std::move(e));
}

inline void record_decode(obs::Registry* reg, const char* label,
                          Outcome::Status status) {
  obs::FlightRecorder* fr = obs::flight(reg);
  if (fr == nullptr) return;
  obs::FlightEvent e;
  e.kind = obs::FlightEventKind::kDecode;
  e.label = label;
  e.attrs = {{"status", static_cast<double>(static_cast<int>(status))}};
  fr->record(std::move(e));
}

}  // namespace graphene::reconcile::detail
