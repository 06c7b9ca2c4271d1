// RelayDaemon driven deterministically: socketpair peers scripted byte by
// byte through poll_once(), fake-clock timeouts, backpressure, drain
// windows, shutdown aborts, and descriptor hygiene.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "harness.hpp"
#include "obs/obs.hpp"

namespace graphene::daemon {
namespace {

using testing::ScriptedPeer;
using testing::count_open_fds;
using testing::drive;
using testing::make_items;

DaemonOptions small_opts() {
  DaemonOptions opts;
  opts.limits.idle_timeout_ns = 1ULL << 62;  // tests drive time explicitly
  opts.limits.session_timeout_ns = 1ULL << 62;
  return opts;
}

/// Runs one complete client session over a scripted socketpair, splitting
/// every outbound frame into `chunk`-byte writes with a poll_once between
/// each — partial reads from the daemon's point of view.
ClientSession::Status run_scripted_session(RelayDaemon& daemon,
                                           const reconcile::ItemSet& client_items,
                                           core::ReconcileBackend backend,
                                           std::size_t chunk) {
  core::ProtocolConfig cfg;
  cfg.reconcile_backend = backend;
  ScriptedPeer peer;
  peer.adopt_into(daemon);
  drive(daemon, 2);  // adopt + register

  ClientSession client(client_items, cfg);
  net::FrameReader reader;
  std::vector<net::Message> to_daemon{client.hello()};
  for (int step = 0; step < 400; ++step) {
    for (const net::Message& msg : to_daemon) {
      const util::Bytes frame = net::encode_frame(msg);
      for (std::size_t off = 0; off < frame.size(); off += chunk) {
        const std::size_t n = std::min(chunk, frame.size() - off);
        peer.send_bytes(util::ByteView(frame.data() + off, n));
        drive(daemon, 1);  // the daemon sees each split separately
      }
    }
    to_daemon.clear();
    drive(daemon, 2);
    reader.absorb(peer.recv_available());
    while (std::optional<net::Message> msg = reader.next()) {
      if (client.on_message(*msg, to_daemon) != ClientSession::Status::kInFlight) {
        for (const net::Message& bye : to_daemon) peer.send_message(bye);
        drive(daemon, 4);
        peer.close_now();
        drive(daemon, 4);
        return client.status();
      }
    }
    if (to_daemon.empty()) break;  // waiting on the daemon; keep polling
  }
  return client.status();
}

TEST(RelayDaemon, CompletesSessionOverSocketpair) {
  RelayDaemon daemon(make_items(150), small_opts());
  const reconcile::ItemSet client_items = make_items(130, /*start=*/40);
  EXPECT_EQ(run_scripted_session(daemon, client_items,
                                 core::ReconcileBackend::kGraphene, /*chunk=*/4096),
            ClientSession::Status::kComplete);
  drive(daemon, 2);
  EXPECT_EQ(daemon.open_connections(), 0u);
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.sessions_ok, 1u);
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_EQ(stats.closed_by_reason[static_cast<std::size_t>(CloseReason::kPeerClosed)],
            1u);
}

TEST(RelayDaemon, CompletesRatelessSessionWithSingleByteWrites) {
  RelayDaemon daemon(make_items(60), small_opts());
  const reconcile::ItemSet client_items = make_items(50, /*start=*/20);
  EXPECT_EQ(run_scripted_session(daemon, client_items,
                                 core::ReconcileBackend::kRatelessIblt, /*chunk=*/1),
            ClientSession::Status::kComplete);
}

TEST(RelayDaemon, MidMessageDisconnectIsPeerReset) {
  RelayDaemon daemon(make_items(50), small_opts());
  ScriptedPeer peer;
  peer.adopt_into(daemon);
  drive(daemon, 2);

  core::ProtocolConfig cfg;
  const reconcile::ItemSet client_items = make_items(10);
  ClientSession client(client_items, cfg);
  const util::Bytes frame = net::encode_frame(client.hello());
  peer.send_bytes(util::ByteView(frame.data(), frame.size() / 2));
  drive(daemon, 2);
  EXPECT_EQ(daemon.open_connections(), 1u);

  peer.close_now();
  drive(daemon, 4);
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(
                CloseReason::kPeerReset)],
            1u);
}

TEST(RelayDaemon, GarbageGetsTypedErrorFrameThenClose) {
  RelayDaemon daemon(make_items(50), small_opts());
  ScriptedPeer peer;
  peer.adopt_into(daemon);
  drive(daemon, 2);

  const util::Bytes garbage(200, 0x77);
  peer.send_bytes(garbage);
  drive(daemon, 4);

  net::FrameReader reader;
  reader.absorb(peer.recv_available());
  const std::optional<net::Message> msg = reader.next();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, net::MessageType::kDaemonError);
  util::ByteReader payload(msg->payload);
  EXPECT_EQ(ErrorMsg::deserialize(payload).code, ErrorCode::kMalformed);
  EXPECT_TRUE(peer.saw_eof());
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(
                CloseReason::kMalformed)],
            1u);
}

TEST(RelayDaemon, ReplyOverTheFrameCapClosesTypedWithoutThrowing) {
  // A rateless hello claiming 2^40 items asks for a 2.7 MB first chunk,
  // which no frame under a 1 MiB cap can carry. The loop must not throw
  // while framing it: the peer gets a kLimit error frame instead.
  DaemonOptions opts = small_opts();
  opts.limits.max_frame_payload = 1 << 20;
  RelayDaemon daemon(make_items(50), opts);
  ScriptedPeer peer;
  peer.adopt_into(daemon);
  drive(daemon, 2);

  HelloMsg hello;
  hello.backend = 1;
  hello.item_count = util::wire::kMaxDaemonItemCount;
  peer.send_message({net::MessageType::kDaemonHello, hello.serialize()});
  EXPECT_NO_THROW(drive(daemon, 4));

  net::FrameReader reader;
  reader.absorb(peer.recv_available());
  const std::optional<net::Message> msg = reader.next();
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, net::MessageType::kDaemonError);
  util::ByteReader payload(msg->payload);
  EXPECT_EQ(ErrorMsg::deserialize(payload).code, ErrorCode::kLimit);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(peer.saw_eof());
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(CloseReason::kLimit)],
            1u);
}

TEST(RelayDaemon, IdleTimeoutClosesOnFakeClock) {
  obs::ScopedFakeClock clock(1'000'000);
  DaemonOptions opts;
  opts.limits.idle_timeout_ns = 5'000'000;
  RelayDaemon daemon(make_items(20), opts);
  ScriptedPeer peer;
  peer.adopt_into(daemon);
  drive(daemon, 2);
  EXPECT_EQ(daemon.open_connections(), 1u);

  clock.advance(4'999'999);
  drive(daemon, 1);
  EXPECT_EQ(daemon.open_connections(), 1u);
  clock.advance(2);
  drive(daemon, 1);
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(
                CloseReason::kIdleTimeout)],
            1u);
}

TEST(RelayDaemon, SessionTimeoutClosesOnFakeClock) {
  obs::ScopedFakeClock clock(1'000'000);
  DaemonOptions opts;
  opts.limits.idle_timeout_ns = 1ULL << 62;
  opts.limits.session_timeout_ns = 10'000'000;
  RelayDaemon daemon(make_items(40), opts);
  ScriptedPeer peer;
  peer.adopt_into(daemon);
  drive(daemon, 2);

  core::ProtocolConfig cfg;
  const reconcile::ItemSet client_items = make_items(30, 10);
  ClientSession client(client_items, cfg);
  peer.send_message(client.hello());
  drive(daemon, 2);  // session opens; offer comes back

  clock.advance(10'000'001);
  drive(daemon, 2);
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(
                CloseReason::kSessionTimeout)],
            1u);
}

TEST(RelayDaemon, SlowDrainPeerHitsSendQueueHardCap) {
  DaemonOptions opts = small_opts();
  opts.limits.send_queue_cap = 2048;
  opts.limits.send_queue_hard_cap = 8192;
  RelayDaemon daemon(make_items(300), opts);

  ScriptedPeer peer;
  peer.shrink_daemon_sndbuf();  // make the kernel buffer fill in KiB
  peer.adopt_into(daemon);
  drive(daemon, 2);

  // Pipeline hello/bye pairs and never read a single reply byte: the daemon
  // processes the whole batch in one read, queueing an offer per pair for a
  // peer that is not draining — the aggregate blows the hard cap no matter
  // how small one offer is.
  HelloMsg hello;
  hello.version = kDaemonProtocolVersion;
  hello.item_count = 10;
  ByeMsg bye;
  bye.ok = 0;
  bye.rounds = 0;
  util::Bytes script;
  for (int i = 0; i < 200; ++i) {
    const util::Bytes h =
        net::encode_frame({net::MessageType::kDaemonHello, hello.serialize()});
    const util::Bytes b =
        net::encode_frame({net::MessageType::kDaemonBye, bye.serialize()});
    script.insert(script.end(), h.begin(), h.end());
    script.insert(script.end(), b.begin(), b.end());
  }
  bool closed = false;
  std::size_t off = 0;
  for (int i = 0; i < 200 && !closed; ++i) {
    if (off < script.size()) {
      off += peer.send_bytes(
          util::ByteView(script.data() + off, script.size() - off));
    }
    drive(daemon, 1);
    closed = daemon.open_connections() == 0;
  }
  ASSERT_TRUE(closed) << "slow-drain peer was never cut off";
  EXPECT_EQ(
      daemon.stats().closed_by_reason[static_cast<std::size_t>(CloseReason::kLimit)],
      1u);
}

TEST(RelayDaemon, StopAbortsInFlightSessionsTyped) {
  RelayDaemon daemon(make_items(80), small_opts());
  std::vector<std::unique_ptr<ScriptedPeer>> peers;
  core::ProtocolConfig cfg;
  const reconcile::ItemSet client_items = make_items(60, 10);
  for (int i = 0; i < 5; ++i) {
    auto peer = std::make_unique<ScriptedPeer>();
    peer->adopt_into(daemon);
    drive(daemon, 1);
    ClientSession client(client_items, cfg);
    peer->send_message(client.hello());  // leave every session mid-flight
    peers.push_back(std::move(peer));
  }
  drive(daemon, 4);
  EXPECT_EQ(daemon.open_connections(), 5u);

  daemon.stop();
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(
                CloseReason::kShutdown)],
            5u);
  // Each peer got the typed shutdown error before its fd closed.
  for (auto& peer : peers) {
    net::FrameReader reader;
    reader.absorb(peer->recv_available());
    bool saw_shutdown = false;
    while (std::optional<net::Message> msg = reader.next()) {
      if (msg->type != net::MessageType::kDaemonError) continue;
      util::ByteReader payload(msg->payload);
      saw_shutdown = ErrorMsg::deserialize(payload).code == ErrorCode::kShutdown;
    }
    EXPECT_TRUE(saw_shutdown);
  }
}

TEST(RelayDaemon, MaxConnectionsRefusesExtras) {
  DaemonOptions opts = small_opts();
  opts.max_connections = 2;
  RelayDaemon daemon(make_items(10), opts);
  ScriptedPeer a, b, c;
  a.adopt_into(daemon);
  b.adopt_into(daemon);
  c.adopt_into(daemon);
  drive(daemon, 3);
  EXPECT_EQ(daemon.open_connections(), 2u);
  EXPECT_EQ(daemon.stats().conns_refused, 1u);
  EXPECT_TRUE(c.saw_eof());
}

TEST(RelayDaemon, LifecycleLeaksNoDescriptors) {
  const std::size_t before = count_open_fds();
  {
    RelayDaemon daemon(make_items(60), small_opts());
    for (int round = 0; round < 3; ++round) {
      const reconcile::ItemSet client_items = make_items(50, 20);
      EXPECT_EQ(run_scripted_session(daemon, client_items,
                                     core::ReconcileBackend::kGraphene, 512),
                ClientSession::Status::kComplete);
    }
    // And one abandoned mid-frame.
    ScriptedPeer peer;
    peer.adopt_into(daemon);
    drive(daemon, 2);
    const util::Bytes junk(10, 0x42);
    peer.send_bytes(junk);
    drive(daemon, 1);
    peer.close_now();
    drive(daemon, 4);
    EXPECT_EQ(daemon.open_connections(), 0u);
  }
  EXPECT_EQ(count_open_fds(), before);
}

}  // namespace
}  // namespace graphene::daemon
