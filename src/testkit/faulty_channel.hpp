// Fault-injecting wrapper over net::Channel for protocol robustness tests.
//
// A real peer link drops, truncates, duplicates, reorders, and corrupts
// messages; the protocol engines must always terminate with either a decoded
// block or a typed error — never a hang, a crash, or a silently wrong block.
// FaultyChannel makes that property testable: every transmit rolls a seeded
// fault schedule and returns the byte buffers the far side actually gets
// (possibly none, two, stale, shortened, or bit-flipped ones), while the
// wrapped net::Channel keeps exact accounting of what the sender put on the
// wire. The schedule is a pure function of FaultSpec::seed, so any failing
// interleaving replays from the seed printed by the failing gate.
#pragma once

#include <cstdint>
#include <vector>

#include "net/channel.hpp"
#include "util/random.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace graphene::obs {
class Registry;
}  // namespace graphene::obs

namespace graphene::testkit {

/// Independent per-message fault probabilities. Faults compose: a message
/// can be truncated AND duplicated in one transmit; drop wins over the rest.
struct FaultSpec {
  double drop = 0.0;       ///< message vanishes
  double duplicate = 0.0;  ///< delivered twice
  double reorder = 0.0;    ///< held back; arrives after the next message
  double truncate = 0.0;   ///< payload cut at a random point
  double bitflip = 0.0;    ///< 1–8 random bits flipped
  std::uint64_t seed = 1;  ///< fault schedule stream
};

struct FaultCounts {
  std::uint64_t sent = 0;       ///< transmit() calls
  std::uint64_t delivered = 0;  ///< buffers handed to the far side
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t truncated = 0;
  std::uint64_t bitflipped = 0;
  [[nodiscard]] std::uint64_t faults() const noexcept {
    return dropped + duplicated + reordered + truncated + bitflipped;
  }
};

class FaultyChannel {
 public:
  /// `inner` (optional, not owned) records every original send for byte
  /// accounting; faults never alter what it logs — they model the link, not
  /// the sender.
  explicit FaultyChannel(FaultSpec spec, net::Channel* inner = nullptr)
      : spec_(spec), rng_(spec.seed), inner_(inner) {}

  /// Sends one message through the faulty link. Returns every byte buffer
  /// delivered to the far side, in arrival order (empty on drop; a held-back
  /// reordered message from an earlier transmit may arrive appended here).
  /// Thread-safe: the fault schedule, counters, and hold-back queues are
  /// serialized under one mutex, so concurrent sessions can share a link
  /// (the schedule stays a pure function of seed and transmit order).
  std::vector<util::Bytes> transmit(net::Direction dir, net::MessageType type,
                                    util::Bytes payload) EXCLUDES(mu_);

  /// Delivers any still-held (reordered) messages for `dir` — the "link went
  /// quiet" flush that keeps a session from waiting forever on a message the
  /// schedule held back.
  std::vector<util::Bytes> flush(net::Direction dir) EXCLUDES(mu_);

  /// Snapshot of the fault accounting (by value: the counters mutate under
  /// mu_ on every transmit, so a reference could tear mid-read).
  [[nodiscard]] FaultCounts counts() const EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return counts_;
  }
  [[nodiscard]] net::Channel* inner() const noexcept { return inner_; }

  /// Attaches a telemetry registry (not owned). Each transmit/flush then
  /// bumps graphene_fault_* counters and — when the registry's flight
  /// recorder is on — records a kNote "link" event per delivered buffer, with
  /// the delivered bytes attached under wire capture so a capture replayed
  /// through tools/replay_capture sees exactly what the far side saw.
  void attach_obs(obs::Registry* reg) noexcept { obs_ = reg; }
  [[nodiscard]] obs::Registry* obs() const noexcept { return obs_; }

 private:
  void note_delivery(net::Direction dir, net::MessageType type,
                     const std::vector<util::Bytes>& out, const FaultCounts& before)
      REQUIRES(mu_);

  FaultSpec spec_;
  mutable util::Mutex mu_;
  util::Rng rng_ GUARDED_BY(mu_);
  FaultCounts counts_ GUARDED_BY(mu_);
  std::vector<util::Bytes> held_[2] GUARDED_BY(mu_);
  // Set-before-share pointers (like spec_): attach_obs/construction happen
  // before the link is handed to concurrent sessions.
  net::Channel* inner_;
  obs::Registry* obs_ = nullptr;
};

}  // namespace graphene::testkit
