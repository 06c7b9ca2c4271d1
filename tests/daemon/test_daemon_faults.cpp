// Fault and soak suite for the relay daemon: tens of concurrent scripted
// peers per trial — clean clients, FaultyChannel-corrupted links, mid-frame
// quitters, garbage blasters — driven deterministically on fake time. The
// gated property is the termination guarantee: every connection ends in a
// decoded-and-verified session, a typed error, or a bounded abort, with all
// descriptors reclaimed; never a hang or a leak. GRAPHENE_STRESS multiplies
// the trial count as usual.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "obs/obs.hpp"
#include "reconcile/rateless_backend.hpp"
#include "testkit/faulty_channel.hpp"
#include "testkit/stat_gate.hpp"

namespace graphene::daemon {
namespace {

using testing::ScriptedPeer;
using testing::count_open_fds;
using testing::make_items;

constexpr std::uint64_t kIdleNs = 50'000'000;

/// One scripted peer of the soak: behavior depends on its kind.
struct SoakPeer {
  enum class Kind : std::uint8_t {
    kClean,        ///< full protocol, must complete
    kFaultyLink,   ///< frames pass a FaultyChannel before hitting the wire
    kMidFrameQuit, ///< sends half a hello, then disconnects
    kGarbage,      ///< blasts non-protocol bytes
  };

  SoakPeer(Kind kind_in, reconcile::ItemSet items_in, core::ProtocolConfig cfg_in,
           testkit::FaultSpec faults, std::uint32_t sessions_in)
      : kind(kind_in),
        items(std::move(items_in)),
        cfg(cfg_in),
        client(std::in_place, items, cfg),
        link(faults),
        sessions(sessions_in) {}

  Kind kind;
  reconcile::ItemSet items;  ///< owned: ClientSession borrows it
  core::ProtocolConfig cfg;
  ScriptedPeer sock;
  std::optional<ClientSession> client;  ///< the session in flight
  testkit::FaultyChannel link;
  net::FrameReader reader;
  std::uint32_t sessions;        ///< sessions to run back to back
  std::uint32_t sessions_ok = 0; ///< of them, decoded and verified
  std::set<std::uint64_t> rateless_salts;  ///< salts of the chunks received
  bool finished = false;  ///< this peer's script ran to its end
};

void send_through_link(SoakPeer& peer, const net::Message& msg) {
  const util::Bytes frame = net::encode_frame(msg);
  if (peer.kind != SoakPeer::Kind::kFaultyLink) {
    peer.sock.send_bytes(frame);
    return;
  }
  for (const util::Bytes& delivered :
       peer.link.transmit(net::Direction::kSenderToReceiver, msg.type, frame)) {
    peer.sock.send_bytes(delivered);
  }
}

/// Steps one peer: absorbs daemon replies, advances its script. Returns true
/// while the peer still has work to do.
bool step_peer(SoakPeer& peer, const reconcile::ItemSet& host_items) {
  if (peer.finished) return false;
  switch (peer.kind) {
    case SoakPeer::Kind::kMidFrameQuit: {
      const util::Bytes frame = net::encode_frame(peer.client->hello());
      peer.sock.send_bytes(util::ByteView(frame.data(), frame.size() / 2));
      peer.sock.close_now();
      peer.finished = true;
      return false;
    }
    case SoakPeer::Kind::kGarbage: {
      const util::Bytes junk(97, 0xd5);
      peer.sock.send_bytes(junk);
      peer.finished = true;  // daemon answers with an error and closes
      return false;
    }
    case SoakPeer::Kind::kClean:
    case SoakPeer::Kind::kFaultyLink:
      break;
  }

  std::vector<net::Message> to_daemon;
  try {
    peer.reader.absorb(peer.sock.recv_available());
    while (std::optional<net::Message> msg = peer.reader.next()) {
      if (msg->type == net::MessageType::kRatelessChunk) {
        util::ByteReader r{util::ByteView(msg->payload)};
        peer.rateless_salts.insert(reconcile::RatelessChunk::deserialize(r).salt);
      }
      const ClientSession::Status status = peer.client->on_message(*msg, to_daemon);
      if (status == ClientSession::Status::kInFlight) continue;
      for (const net::Message& bye : to_daemon) send_through_link(peer, bye);
      to_daemon.clear();
      if (status == ClientSession::Status::kComplete &&
          peer.client->outcome().host_set == host_items) {
        ++peer.sessions_ok;
      }
      if (status == ClientSession::Status::kComplete && --peer.sessions > 0) {
        peer.client.emplace(peer.items, peer.cfg);  // the next session
        send_through_link(peer, peer.client->hello());
        continue;
      }
      peer.sock.close_now();
      peer.finished = true;
      return false;
    }
  } catch (const util::DeserializeError&) {
    // Replies themselves are clean; only reachable if the daemon closed
    // mid-frame on us — give up, which is itself a valid peer behavior.
    peer.sock.close_now();
    peer.finished = true;
    return false;
  }
  for (const net::Message& msg : to_daemon) send_through_link(peer, msg);
  return true;
}

/// The peers of one soak trial.
struct SoakShape {
  std::size_t peers = 64;
  /// Sessions each clean or faulty-link peer runs back to back.
  std::uint32_t sessions = 1;
  /// Every peer speaks rateless, in a fixed mix of kinds (peer i is kind
  /// i mod 4), so each trial runs a known number of clean rateless sessions.
  bool rateless = false;
};

/// Runs one trial; the salts of the chunks clean peers received go to
/// `salts` when it is given.
bool soak_trial(util::Rng& rng, const SoakShape& shape,
                std::set<std::uint64_t>* salts = nullptr) {
  const std::size_t fds_before = count_open_fds();
  bool ok = true;
  {
    obs::ScopedFakeClock clock(1'000'000'000);
    DaemonOptions opts;
    opts.limits.idle_timeout_ns = kIdleNs;
    opts.limits.session_timeout_ns = kIdleNs;
    const reconcile::ItemSet host_items = make_items(90);
    RelayDaemon daemon(host_items, opts);

    std::vector<std::unique_ptr<SoakPeer>> peers;
    std::uint64_t clean_count = 0;
    for (std::size_t i = 0; i < shape.peers; ++i) {
      // Drawn in every shape, so the default shape's trials stay as they were.
      const auto drawn = static_cast<SoakPeer::Kind>(rng.below(4));
      const auto kind = shape.rateless ? static_cast<SoakPeer::Kind>(i % 4) : drawn;
      if (kind == SoakPeer::Kind::kClean) ++clean_count;
      core::ProtocolConfig cfg;
      cfg.reconcile_backend = rng.below(2) == 0 && !shape.rateless
                                  ? core::ReconcileBackend::kGraphene
                                  : core::ReconcileBackend::kRatelessIblt;
      testkit::FaultSpec faults;
      faults.drop = 0.1;
      faults.duplicate = 0.1;
      faults.truncate = 0.15;
      faults.bitflip = 0.15;
      faults.seed = rng.next();
      auto peer = std::make_unique<SoakPeer>(kind, make_items(70, rng.below(40)), cfg,
                                             faults, shape.sessions);
      peer->sock.adopt_into(daemon);
      peers.push_back(std::move(peer));
    }
    testing::drive(daemon, static_cast<int>(shape.peers));

    // Kick every conversation off, then round-robin until quiescent.
    for (auto& peer : peers) {
      if (peer->kind == SoakPeer::Kind::kClean ||
          peer->kind == SoakPeer::Kind::kFaultyLink) {
        send_through_link(*peer, peer->client->hello());
      }
    }
    for (int step = 0; step < 400; ++step) {
      testing::drive(daemon, 2);
      bool any = false;
      for (auto& peer : peers) any = step_peer(*peer, host_items) || any;
      if (!any) break;
      clock.advance(1'000);  // keep activity stamps moving, far below timeouts
    }

    // Whatever survives (dropped hellos, sessions a corrupted frame killed
    // client-side) must be reaped by the timeout sweep — bounded abort.
    testing::drive(daemon, 2);
    clock.advance(kIdleNs + 1'000'000);
    testing::drive(daemon, 4);

    if (daemon.open_connections() != 0) ok = false;
    const DaemonStats stats = daemon.stats();
    if (stats.conns_closed != shape.peers) ok = false;
    // Every clean peer's sessions decoded and verified end to end.
    std::uint64_t clean_ok = 0;
    for (const auto& peer : peers) {
      if (peer->kind != SoakPeer::Kind::kClean) continue;
      if (peer->sessions_ok == shape.sessions) ++clean_ok;
      if (salts != nullptr) {
        salts->insert(peer->rateless_salts.begin(), peer->rateless_salts.end());
      }
    }
    if (clean_ok != clean_count) ok = false;
    if (stats.sessions_ok < clean_ok * shape.sessions) ok = false;
  }
  // Daemon and every peer destroyed: the process fd table must be restored.
  if (count_open_fds() != fds_before) ok = false;
  return ok;
}

TEST(DaemonSoak, ConcurrentFaultyPeersAlwaysTerminateWithoutLeaks) {
  testkit::StatGateSpec spec;
  spec.name = "daemon_soak_termination";
  spec.trials = 5;  // ×10 under GRAPHENE_STRESS
  spec.min_rate = 1.0;  // the termination guarantee admits no failures
  spec.seed = 0xda330;
  const testkit::StatGate gate(spec);
  const testkit::GateResult result = gate.run(
      [](util::Rng& rng, std::uint64_t) { return soak_trial(rng, SoakShape{}); });
  GRAPHENE_ASSERT_GATE(result);
}

TEST(DaemonSoak, RatelessSessionsAcrossSaltEpochsTerminateExactly) {
  // Every peer speaks rateless and runs several sessions, so each trial's
  // daemon serves more than one salt epoch: sessions opened in one epoch
  // finish beside sessions of the next, under the same faults and quitters.
  SoakShape shape;
  shape.peers = 32;
  shape.sessions = 10;  // 8 clean peers: 80 clean hellos, past one epoch
  shape.rateless = true;
  // Each peer sends at most `sessions` hellos, which a faulty link may
  // deliver twice: one salt per kRatelessEpochSessions of them at most, plus
  // the epoch they end in. Per-session salts would give one a session.
  const std::uint64_t max_salts =
      2 * shape.peers * shape.sessions / kRatelessEpochSessions + 1;
  testkit::StatGateSpec spec;
  spec.name = "daemon_soak_rateless_epochs";
  spec.trials = 3;  // ×10 under GRAPHENE_STRESS
  spec.min_rate = 1.0;
  spec.seed = 0xe90c5;
  const testkit::GateResult result =
      testkit::StatGate(spec).run([&](util::Rng& rng, std::uint64_t) {
        std::set<std::uint64_t> salts;
        const bool ok = soak_trial(rng, shape, &salts);
        return ok && salts.size() >= 2 && salts.size() <= max_salts;
      });
  GRAPHENE_ASSERT_GATE(result);
}

}  // namespace
}  // namespace graphene::daemon
