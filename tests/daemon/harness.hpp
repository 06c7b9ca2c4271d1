// Deterministic harness for the relay daemon suites.
//
// Two layers, matching the daemon's own split:
//   * message-level — PeerSession/ClientSession shuttled through encoded
//     frames in process, no sockets, fake time passed explicitly;
//   * transport-level — a real RelayDaemon driven single-threaded through
//     poll_once() over socketpairs the tests script byte by byte (partial
//     reads, split writes, slow drains, mid-message disconnects), with
//     ScopedFakeClock driving every timeout.
// Both layers bound every loop, so a protocol hang fails an assertion
// instead of wedging the suite; fd hygiene is checked by counting
// /proc/self/fd before and after.
#pragma once

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>

#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/session.hpp"
#include "net/frame.hpp"
#include "reconcile/types.hpp"

namespace graphene::daemon::testing {

inline reconcile::ItemDigest make_digest(std::uint64_t v) {
  reconcile::ItemDigest d{};
  for (std::size_t i = 0; i < 8; ++i) {
    d[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  d[31] = 0x9c;  // keep test digests disjoint from the all-zero digest
  return d;
}

/// `count` digests starting at `start` — overlapping ranges model shared
/// items between host and client sets.
inline reconcile::ItemSet make_items(std::uint64_t count, std::uint64_t start = 0) {
  reconcile::ItemSet items;
  items.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) items.insert(make_digest(start + i));
  return items;
}

/// Open descriptors of this process — the leak detector for the soak suite.
inline std::size_t count_open_fds() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// One end of a socketpair whose far end a RelayDaemon adopted. All I/O is
/// nonblocking; tests interleave writes/reads with daemon.poll_once(0).
class ScriptedPeer {
 public:
  ScriptedPeer() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0, fds) !=
        0) {
      return;
    }
    mine_ = fds[0];
    theirs_ = fds[1];
  }
  ~ScriptedPeer() {
    if (mine_ >= 0) ::close(mine_);
    if (theirs_ >= 0) ::close(theirs_);
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  /// Hands the daemon its end (ownership transfers; call exactly once).
  void adopt_into(RelayDaemon& daemon) {
    daemon.adopt(theirs_);
    theirs_ = -1;
  }

  /// Writes as much of `data` as the kernel accepts; returns bytes taken
  /// (short when the daemon applies backpressure and the buffer fills).
  std::size_t send_bytes(util::ByteView data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(mine_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      break;  // EAGAIN (buffer full) or daemon closed its end
    }
    return off;
  }

  void send_message(const net::Message& msg) {
    const util::Bytes frame = net::encode_frame(msg);
    send_bytes(frame);
  }

  /// Drains everything currently readable (empty when nothing is pending).
  util::Bytes recv_available() {
    util::Bytes out;
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::read(mine_, buf, sizeof buf);
      if (n > 0) {
        out.insert(out.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return out;  // EOF or EAGAIN
    }
  }

  /// True once the daemon closed its end and all bytes are drained.
  [[nodiscard]] bool saw_eof() {
    std::uint8_t b = 0;
    const ssize_t n = ::recv(mine_, &b, 1, MSG_PEEK);
    return n == 0;
  }

  void shutdown_write() { (void)::shutdown(mine_, SHUT_WR); }
  void close_now() {
    if (mine_ >= 0) ::close(mine_);
    mine_ = -1;
  }
  [[nodiscard]] int fd() const noexcept { return mine_; }
  /// Shrinks the daemon-side send buffer before adoption so slow-drain tests
  /// can fill it with kilobytes instead of the default hundreds of KiB.
  void shrink_daemon_sndbuf() {
    const int tiny = 1;  // kernel clamps to its minimum
    (void)::setsockopt(theirs_, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny);
  }

 private:
  int mine_ = -1;
  int theirs_ = -1;
};

/// Steps poll_once(0) `iters` times — bounded, so a wedged loop fails fast.
inline void drive(RelayDaemon& daemon, int iters) {
  for (int i = 0; i < iters; ++i) (void)daemon.poll_once(/*timeout_ms=*/0);
}

/// Message-level shuttle: runs one full client session against a PeerSession
/// with no transport at all. Returns the client's final status; `now_ns` is
/// passed straight through to the session (fake time). Every daemon message
/// is appended to `from_daemon` when it is given.
inline ClientSession::Status pump_session(PeerSession& session, ClientSession& client,
                                          std::uint64_t now_ns, int max_steps = 200,
                                          std::vector<net::Message>* from_daemon = nullptr) {
  std::vector<net::Message> to_daemon{client.hello()};
  for (int step = 0; step < max_steps; ++step) {
    std::vector<net::Message> to_client;
    for (const net::Message& msg : to_daemon) {
      const util::Bytes frame = net::encode_frame(msg);
      if (!session.on_bytes(now_ns, frame, to_client)) break;
    }
    to_daemon.clear();
    if (from_daemon != nullptr) {
      from_daemon->insert(from_daemon->end(), to_client.begin(), to_client.end());
    }
    for (const net::Message& msg : to_client) {
      if (client.on_message(msg, to_daemon) != ClientSession::Status::kInFlight) {
        // flush the bye so the session's accounting sees the result
        for (const net::Message& bye : to_daemon) {
          std::vector<net::Message> ignored;
          (void)session.on_bytes(now_ns, net::encode_frame(bye), ignored);
        }
        return client.status();
      }
    }
    if (to_daemon.empty()) break;  // neither side has anything to say
  }
  return client.status();
}

}  // namespace graphene::daemon::testing
