// Edge paths the main loop/fault suites don't reach: obs-instrumented
// sessions, the TCP accept path refusing beyond max_connections, the
// pause/resume backpressure window (between the soft cap and the hard cap),
// the post-close drain window (both outcomes: peer drains it, deadline
// reaps it), listen() error paths, session move construction, and the
// loadgen's connection-error accounting, against real daemons and against a
// daemon the test plays by hand.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "daemon/loadgen.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"

namespace graphene::daemon {
namespace {

using testing::ScriptedPeer;
using testing::drive;
using testing::make_items;

DaemonOptions no_timeout_opts() {
  DaemonOptions opts;
  opts.limits.idle_timeout_ns = 1ULL << 62;
  opts.limits.session_timeout_ns = 1ULL << 62;
  return opts;
}

/// Encodes `pairs` pipelined hello/bye exchanges as one byte script.
util::Bytes hello_bye_script(int pairs, std::uint8_t backend = 0) {
  HelloMsg hello;
  hello.version = kDaemonProtocolVersion;
  hello.backend = backend;
  hello.item_count = 10;
  ByeMsg bye;
  bye.ok = 1;
  bye.rounds = 1;
  util::Bytes script;
  for (int i = 0; i < pairs; ++i) {
    const util::Bytes h =
        net::encode_frame({net::MessageType::kDaemonHello, hello.serialize()});
    const util::Bytes b =
        net::encode_frame({net::MessageType::kDaemonBye, bye.serialize()});
    script.insert(script.end(), h.begin(), h.end());
    script.insert(script.end(), b.begin(), b.end());
  }
  return script;
}

/// Counts complete frames of the given type in a drained byte stream.
std::size_t count_frames(net::FrameReader& reader, util::ByteView bytes,
                         net::MessageType type) {
  reader.absorb(bytes);
  std::size_t count = 0;
  while (std::optional<net::Message> msg = reader.next()) {
    if (msg->type == type) ++count;
  }
  return count;
}

TEST(DaemonEdges, ObsMetersSessionsAndCloseReasons) {
  obs::Registry reg;
  DaemonOptions opts = no_timeout_opts();
  opts.protocol.obs = &reg;
  RelayDaemon daemon(make_items(40), opts);

  // One clean session per backend, plus one garbage peer for the error path.
  for (const std::uint8_t backend : {std::uint8_t{0}, std::uint8_t{1}}) {
    ScriptedPeer peer;
    peer.adopt_into(daemon);
    drive(daemon, 2);
    peer.send_bytes(hello_bye_script(1, backend));
    drive(daemon, 4);
    peer.close_now();
    drive(daemon, 4);
  }
  ScriptedPeer garbage;
  garbage.adopt_into(daemon);
  drive(daemon, 2);
  const util::Bytes junk(64, 0x21);
  garbage.send_bytes(junk);
  drive(daemon, 4);
  EXPECT_EQ(daemon.open_connections(), 0u);

  // Both backends metered, both close reasons counted, gauge back at zero.
  EXPECT_EQ(reg.counter("daemon_sessions_total", {{"backend", "graphene"}, {"ok", "1"}})
                .value(),
            1u);
  EXPECT_EQ(reg.counter("daemon_sessions_total", {{"backend", "rateless"}, {"ok", "1"}})
                .value(),
            1u);
  EXPECT_GE(reg.histogram("daemon_session_rounds", {{"backend", "graphene"}}).count(),
            1u);
  EXPECT_EQ(reg.counter("daemon_session_errors_total", {{"code", "malformed"}}).value(),
            1u);
  EXPECT_EQ(reg.counter("daemon_conns_closed_total", {{"reason", "peer_closed"}}).value(),
            2u);
  EXPECT_EQ(reg.counter("daemon_conns_closed_total", {{"reason", "malformed"}}).value(),
            1u);
  EXPECT_EQ(reg.gauge("daemon_connections_open").value(), 0.0);
}

TEST(DaemonEdges, TcpAcceptRefusesBeyondMaxConnections) {
  DaemonOptions opts = no_timeout_opts();
  opts.max_connections = 1;
  RelayDaemon daemon(make_items(10), opts);
  const std::uint16_t port = daemon.listen("127.0.0.1", 0);
  ASSERT_NE(port, 0);

  // No start(): the accept path runs deterministically through poll_once.
  const auto connect_client = [port]() {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, static_cast<const sockaddr*>(static_cast<const void*>(&addr)),
                        sizeof(addr)),
              0);
    return fd;
  };
  const int first = connect_client();
  const int second = connect_client();
  drive(daemon, 4);

  EXPECT_EQ(daemon.open_connections(), 1u);
  EXPECT_EQ(daemon.stats().conns_refused, 1u);
  // The refused socket reads EOF; the accepted one stays open.
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(second, &byte, 1, 0), 0);
  ::close(first);
  ::close(second);
  drive(daemon, 4);
  EXPECT_EQ(daemon.open_connections(), 0u);
}

TEST(DaemonEdges, BackpressurePausesThenResumesReads) {
  DaemonOptions opts = no_timeout_opts();
  opts.limits.send_queue_cap = 600;       // a handful of queued offers trips it
  opts.limits.send_queue_hard_cap = 1 << 20;  // far away: pause, don't close
  RelayDaemon daemon(make_items(120), opts);

  ScriptedPeer peer;
  peer.shrink_daemon_sndbuf();  // flushes stall, so the queue actually grows
  peer.adopt_into(daemon);
  drive(daemon, 2);

  // One batch of pipelined sessions lands the queue between the caps.
  peer.send_bytes(hello_bye_script(10));
  drive(daemon, 4);
  EXPECT_EQ(daemon.open_connections(), 1u);

  // Drain the peer side until every queued offer arrives — the daemon must
  // flush, drop below the low watermark, and resume reading.
  net::FrameReader reader;
  std::size_t offers = 0;
  for (int i = 0; i < 200 && offers < 10; ++i) {
    drive(daemon, 1);
    offers += count_frames(reader, peer.recv_available(),
                           net::MessageType::kReconcileOffer);
  }
  EXPECT_EQ(offers, 10u);

  // Reads resumed: one more session completes end to end.
  peer.send_bytes(hello_bye_script(1));
  for (int i = 0; i < 50 && offers < 11; ++i) {
    drive(daemon, 1);
    offers += count_frames(reader, peer.recv_available(),
                           net::MessageType::kReconcileOffer);
  }
  EXPECT_EQ(offers, 11u);

  peer.close_now();
  drive(daemon, 4);
  EXPECT_EQ(daemon.open_connections(), 0u);
  // Per-session stats aggregate into daemon totals at connection close.
  EXPECT_EQ(daemon.stats().sessions_ok, 11u);
}

TEST(DaemonEdges, DrainWindowDeliversFinalFramesBeforeClose) {
  RelayDaemon daemon(make_items(120), no_timeout_opts());
  ScriptedPeer peer;
  peer.shrink_daemon_sndbuf();
  peer.adopt_into(daemon);
  drive(daemon, 2);

  // Stuff the send queue well past the shrunken socket buffer, then
  // misbehave: the kMalformed close happens with frames still queued, so the
  // daemon enters the drain window.
  peer.send_bytes(hello_bye_script(40));
  drive(daemon, 4);
  const util::Bytes junk(48, 0x13);
  peer.send_bytes(junk);
  drive(daemon, 4);

  // Reading the peer side lets the drain complete: all offers, then the
  // typed error, then EOF.
  net::FrameReader reader;
  std::size_t errors = 0;
  for (int i = 0; i < 200 && daemon.open_connections() != 0; ++i) {
    drive(daemon, 1);
    errors += count_frames(reader, peer.recv_available(),
                           net::MessageType::kDaemonError);
  }
  errors += count_frames(reader, peer.recv_available(), net::MessageType::kDaemonError);
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(errors, 1u);
  EXPECT_TRUE(peer.saw_eof());
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(
                CloseReason::kMalformed)],
            1u);
}

TEST(DaemonEdges, DrainDeadlineReapsUnreadPeer) {
  obs::ScopedFakeClock clock(1'000'000'000);
  DaemonOptions opts = no_timeout_opts();
  opts.drain_timeout_ns = 2'000'000;
  RelayDaemon daemon(make_items(120), opts);
  ScriptedPeer peer;
  peer.shrink_daemon_sndbuf();
  peer.adopt_into(daemon);
  drive(daemon, 2);

  peer.send_bytes(hello_bye_script(40));
  drive(daemon, 4);
  const util::Bytes junk(48, 0x13);
  peer.send_bytes(junk);
  drive(daemon, 4);
  EXPECT_EQ(daemon.open_connections(), 1u);  // draining, peer never reads

  clock.advance(opts.drain_timeout_ns + 1'000'000);
  drive(daemon, 2);
  EXPECT_EQ(daemon.open_connections(), 0u);
  EXPECT_EQ(daemon.stats().closed_by_reason[static_cast<std::size_t>(
                CloseReason::kMalformed)],
            1u);
}

TEST(DaemonEdges, ListenRejectsBadAndUnassignableAddresses) {
  RelayDaemon daemon(make_items(10), no_timeout_opts());
  EXPECT_THROW((void)daemon.listen("not-an-address", 0), std::runtime_error);
  // TEST-NET-3 (RFC 5737) is never assigned locally, so bind must fail.
  EXPECT_THROW((void)daemon.listen("203.0.113.7", 0), std::runtime_error);
}

TEST(DaemonEdges, SessionsAreMoveConstructible) {
  const reconcile::ItemSet host_items = make_items(30);
  DaemonLimits limits;
  core::ProtocolConfig cfg;
  PeerSession original(host_items, /*salt=*/7, limits, cfg);
  PeerSession moved(std::move(original));

  const reconcile::ItemSet client_items = make_items(25, 5);
  ClientSession client_orig(client_items, cfg);
  ClientSession client(std::move(client_orig));

  EXPECT_EQ(testing::pump_session(moved, client, /*now_ns=*/1'000'000'000),
            ClientSession::Status::kComplete);
}

TEST(LoadgenEdges, DeadPortReportsEveryConnectionAsError) {
  // Bind-then-close so the port is known dead, not merely unlikely.
  RelayDaemon placeholder(make_items(5));
  const std::uint16_t port = placeholder.listen("127.0.0.1", 0);
  placeholder.stop();

  const reconcile::ItemSet client_items = make_items(10);
  LoadgenOptions lg;
  lg.port = port;
  lg.connections = 4;
  lg.sessions_per_conn = 1;
  lg.workers = 2;
  lg.items = &client_items;
  lg.deadline_ns = 20ULL * 1000 * 1000 * 1000;
  const LoadgenReport report = run_loadgen(lg);
  EXPECT_EQ(report.sessions_ok, 0u);
  EXPECT_EQ(report.conn_errors, 4u);
}

TEST(LoadgenEdges, RefusedConnectionsCountAsErrorsAndMirrorIntoObs) {
  obs::Registry reg;
  DaemonOptions opts = no_timeout_opts();
  opts.max_connections = 4;
  RelayDaemon daemon(make_items(60), opts);
  const std::uint16_t port = daemon.listen("127.0.0.1", 0);
  daemon.start();

  const reconcile::ItemSet client_items = make_items(50, 10);
  LoadgenOptions lg;
  lg.port = port;
  lg.connections = 8;  // four beyond the daemon's cap
  lg.sessions_per_conn = 1;
  lg.workers = 2;
  lg.items = &client_items;
  lg.protocol.obs = &reg;
  lg.deadline_ns = 60ULL * 1000 * 1000 * 1000;
  const LoadgenReport report = run_loadgen(lg);
  daemon.stop();

  EXPECT_EQ(report.sessions_ok, 4u);
  EXPECT_EQ(report.conn_errors, 4u);
  EXPECT_EQ(reg.histogram("loadgen_session_ns").count(), 4u);
}

/// A loopback listener on an ephemeral port where a test plays the daemon by
/// hand against run_loadgen(). `narrow` shrinks the receive buffer and the
/// segment size before listen(), so the accepted connection inherits both.
class HandDaemon {
 public:
  explicit HandDaemon(bool narrow = false) {
    listener_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listener_ < 0) return;
    const int tiny = 1;
    const int mss = 536;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    socklen_t len = sizeof addr;
    if ((narrow &&
         (::setsockopt(listener_, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny) != 0 ||
          ::setsockopt(listener_, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof mss) != 0)) ||
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
        ::bind(listener_, static_cast<const sockaddr*>(static_cast<const void*>(&addr)),
               sizeof addr) != 0 ||
        ::listen(listener_, 1) != 0 ||
        ::getsockname(listener_, static_cast<sockaddr*>(static_cast<void*>(&addr)), &len) !=
            0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
  }
  ~HandDaemon() {
    if (conn_ >= 0) ::close(conn_);
    if (listener_ >= 0) ::close(listener_);
  }
  HandDaemon(const HandDaemon&) = delete;
  HandDaemon& operator=(const HandDaemon&) = delete;

  /// 0 when the listener could not be set up.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accepts the client's one connection and reads its first frame, the
  /// first session's hello: from then on a session is open on the client.
  [[nodiscard]] bool accept_hello() {
    conn_ = ::accept4(listener_, nullptr, nullptr, SOCK_CLOEXEC);
    net::FrameReader reader;
    std::optional<net::Message> first;
    while (conn_ >= 0 && !first) {
      std::uint8_t buf[64];
      const ssize_t n = ::recv(conn_, buf, sizeof buf, 0);
      if (n <= 0) return false;
      reader.absorb(util::ByteView(buf, static_cast<std::size_t>(n)));
      first = reader.next();
    }
    return first.has_value() && first->type == net::MessageType::kDaemonHello;
  }

  /// Writes all of `bytes` (blocking); false if the connection died first.
  bool send_all(util::ByteView bytes, int flags = 0) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(conn_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL | flags);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Closes the connection with a reset instead of a FIN.
  void reset() {
    const linger abort{1, 0};
    (void)::setsockopt(conn_, SOL_SOCKET, SO_LINGER, &abort, sizeof abort);
    ::close(conn_);
    conn_ = -1;
  }

 private:
  int listener_ = -1;
  int conn_ = -1;
  std::uint16_t port_ = 0;
};

LoadgenOptions one_connection(std::uint16_t port, const reconcile::ItemSet& items,
                              std::uint32_t sessions) {
  LoadgenOptions lg;
  lg.port = port;
  lg.connections = 1;
  lg.sessions_per_conn = sessions;
  lg.workers = 1;
  lg.items = &items;
  lg.protocol.reconcile_backend = core::ReconcileBackend::kRatelessIblt;
  lg.deadline_ns = 60ULL * 1000 * 1000 * 1000;
  return lg;
}

TEST(LoadgenEdges, ResetMidSessionIsAConnectionError) {
  // The daemon resets the connection while the client waits for its first
  // reply: the read fails with ECONNRESET, and the connection counts as an
  // error while the session it carried counts neither way.
  HandDaemon daemon;
  ASSERT_NE(daemon.port(), 0);
  const reconcile::ItemSet client_items = make_items(5);
  LoadgenReport report;
  std::thread load(
      [&] { report = run_loadgen(one_connection(daemon.port(), client_items, 1)); });
  EXPECT_TRUE(daemon.accept_hello());
  daemon.reset();
  load.join();

  EXPECT_EQ(report.sessions_ok, 0u);
  EXPECT_EQ(report.sessions_failed, 0u);
  EXPECT_EQ(report.conn_errors, 1u);
}

TEST(LoadgenEdges, FrameAfterTheLastSessionIsAConnectionError) {
  // The daemon reads only the first hello. It ends each of the client's
  // sessions with a message the rateless client refuses (one bye each), then
  // keeps sending frames. Its narrow receive window lets the kernel take
  // only part of the client's 236 KB of hellos and byes (about 28 KB on a
  // Linux 6 loopback), so after its last session the client cannot close
  // and must read on: the next frame arrives outside any session, a
  // connection error.
  constexpr std::uint32_t kSessions = 4'000;
  HandDaemon daemon(/*narrow=*/true);
  ASSERT_NE(daemon.port(), 0);
  const reconcile::ItemSet client_items = make_items(5);
  LoadgenReport report;
  std::atomic<bool> load_done{false};
  std::thread load([&] {
    report = run_loadgen(one_connection(daemon.port(), client_items, kSessions));
    load_done.store(true, std::memory_order_release);
  });
  // Nothing is sent before the hello, so no frame reaches the client before
  // its first session has started.
  EXPECT_TRUE(daemon.accept_hello());
  const util::Bytes refused = net::encode_frame({net::MessageType::kReconcileOffer, {}});
  util::Bytes script;
  script.reserve(refused.size() * kSessions);
  for (std::uint32_t i = 0; i < kSessions; ++i) {
    script.insert(script.end(), refused.begin(), refused.end());
  }
  EXPECT_TRUE(daemon.send_all(script));
  // The frame after the last session: resent until the client gives up on
  // the connection, since one that shares a read with the last session's
  // message waits for the next read.
  for (int i = 0; i < 10'000 && !load_done.load(std::memory_order_acquire); ++i) {
    (void)daemon.send_all(refused, MSG_DONTWAIT);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  load.join();

  EXPECT_EQ(report.sessions_ok, 0u);
  EXPECT_EQ(report.sessions_failed, kSessions);
  EXPECT_EQ(report.conn_errors, 1u);
  // Most of what the client wrote, a hello and a bye per session, was still
  // queued when it dropped the connection.
  EXPECT_LT(report.bytes_out, std::uint64_t{kSessions} * net::kEnvelopeBytes);
}

}  // namespace
}  // namespace graphene::daemon
