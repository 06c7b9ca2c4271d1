#include "testkit/faulty_channel.hpp"

#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace graphene::testkit {

void FaultyChannel::note_delivery(net::Direction dir, net::MessageType type,
                                  const std::vector<util::Bytes>& out,
                                  const FaultCounts& before) {
  obs::Registry* reg = obs_;
  if (reg == nullptr) return;
  reg->counter("graphene_fault_transmits_total").inc();
  reg->counter("graphene_fault_delivered_total").inc(out.size());
  reg->counter("graphene_fault_dropped_total").inc(counts_.dropped - before.dropped);
  reg->counter("graphene_fault_duplicated_total")
      .inc(counts_.duplicated - before.duplicated);
  reg->counter("graphene_fault_reordered_total").inc(counts_.reordered - before.reordered);
  reg->counter("graphene_fault_truncated_total").inc(counts_.truncated - before.truncated);
  reg->counter("graphene_fault_bitflipped_total")
      .inc(counts_.bitflipped - before.bitflipped);
  obs::FlightRecorder* fr = obs::flight(reg);
  if (fr == nullptr) return;
  for (const util::Bytes& buf : out) {
    obs::record_event(*fr, obs::FlightEventKind::kNote, "link",
                      {{"dir", static_cast<double>(static_cast<int>(dir))},
                       {"type", static_cast<double>(static_cast<int>(type))},
                       {"bytes", static_cast<double>(buf.size())},
                       {"faulted", counts_.faults() > before.faults() ? 1.0 : 0.0}},
                      fr->wire_capture() ? buf : util::Bytes{});
  }
}

std::vector<util::Bytes> FaultyChannel::transmit(net::Direction dir,
                                                 net::MessageType type,
                                                 util::Bytes payload) {
  const util::MutexLock lock(mu_);
  const FaultCounts before = counts_;
  ++counts_.sent;
  if (inner_ != nullptr) {
    inner_->send(dir, net::Message{type, payload});
  }

  std::vector<util::Bytes> out;
  const auto d = static_cast<std::size_t>(dir);
  // Messages held back by earlier transmits arrive in this round, after the
  // current message — taken out first so a hold decided below waits for the
  // NEXT transmit instead of being delivered immediately.
  std::vector<util::Bytes> arriving_late = std::move(held_[d]);
  held_[d].clear();
  if (rng_.chance(spec_.drop)) {
    ++counts_.dropped;
  } else {
    if (rng_.chance(spec_.truncate)) {
      ++counts_.truncated;
      payload.resize(rng_.below(payload.size() + 1));
    }
    if (rng_.chance(spec_.bitflip) && !payload.empty()) {
      ++counts_.bitflipped;
      const std::uint64_t flips = 1 + rng_.below(8);
      for (std::uint64_t i = 0; i < flips; ++i) {
        payload[rng_.below(payload.size())] ^=
            static_cast<std::uint8_t>(1u << rng_.below(8));
      }
    }
    const bool dup = rng_.chance(spec_.duplicate);
    if (dup) ++counts_.duplicated;
    if (rng_.chance(spec_.reorder)) {
      // Held back: this message arrives after the NEXT one in `dir` (or at
      // flush). A duplicate of a held message is held with it.
      ++counts_.reordered;
      held_[d].push_back(payload);
      if (dup) held_[d].push_back(std::move(payload));
    } else {
      out.push_back(payload);
      if (dup) out.push_back(std::move(payload));
    }
  }

  for (util::Bytes& late : arriving_late) out.push_back(std::move(late));
  counts_.delivered += out.size();
  note_delivery(dir, type, out, before);
  return out;
}

std::vector<util::Bytes> FaultyChannel::flush(net::Direction dir) {
  const util::MutexLock lock(mu_);
  const FaultCounts before = counts_;
  const auto d = static_cast<std::size_t>(dir);
  std::vector<util::Bytes> out = std::move(held_[d]);
  held_[d].clear();
  counts_.delivered += out.size();
  note_delivery(dir, net::MessageType::kInv, out, before);
  return out;
}

}  // namespace graphene::testkit
