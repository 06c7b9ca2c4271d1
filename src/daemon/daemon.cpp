#include "daemon/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"
#include "obs/obs.hpp"
#include "util/hash.hpp"

namespace graphene::daemon {

namespace {

[[noreturn]] void raise_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    raise_errno("daemon: fcntl(O_NONBLOCK)");
  }
}

}  // namespace

/// Per-connection transport state. The protocol lives in `session`; this is
/// the socket-side residue: the bounded outbound buffer and epoll interest.
struct RelayDaemon::Conn {
  Conn(int fd_in, const reconcile::ItemSet& items, std::uint64_t salt,
       const DaemonLimits& limits, const core::ProtocolConfig& proto,
       RatelessEpochs& epochs)
      : fd(fd_in), session(items, salt, limits, proto, &epochs) {}

  int fd;
  PeerSession session;
  util::Bytes out;          ///< encoded frames not yet written
  std::size_t out_pos = 0;  ///< bytes of `out` already written
  std::uint32_t interest = 0;
  bool paused = false;    ///< reads suspended by backpressure
  bool draining = false;  ///< session closed; flushing queued bytes
  std::uint64_t drain_deadline_ns = 0;

  [[nodiscard]] std::size_t pending() const noexcept { return out.size() - out_pos; }
};

RelayDaemon::RelayDaemon(reconcile::ItemSet items, DaemonOptions opts)
    : items_(std::move(items)), opts_(opts), epochs_(items_, opts_.salt) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) raise_errno("daemon: epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) raise_errno("daemon: eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    raise_errno("daemon: epoll_ctl(wake)");
  }
}

RelayDaemon::~RelayDaemon() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint16_t RelayDaemon::listen(const std::string& host, std::uint16_t port) {
  if (listen_fd_ >= 0) throw std::logic_error("daemon: already listening");
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) raise_errno("daemon: socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("daemon: bad listen address " + host);
  }
  // sockaddr_in → sockaddr via void*: the POSIX-blessed pun without a
  // reinterpret_cast (banned outside src/util).
  if (::bind(fd, static_cast<const sockaddr*>(static_cast<const void*>(&addr)),
             sizeof addr) < 0) {
    ::close(fd);
    raise_errno("daemon: bind");
  }
  // The kernel caps the backlog at net.core.somaxconn, so asking for more is
  // safe. A literal, because libc's SOMAXCONN is 128 on older glibc and on
  // musl. A shorter queue overflows when a thousand peers connect at once,
  // and each dropped SYN waits about a second for its retransmit.
  if (::listen(fd, 4096) < 0) {
    ::close(fd);
    raise_errno("daemon: listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, static_cast<sockaddr*>(static_cast<void*>(&bound)), &len) < 0) {
    ::close(fd);
    raise_errno("daemon: getsockname");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    raise_errno("daemon: epoll_ctl(listen)");
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return port_;
}

void RelayDaemon::adopt(int fd) {
  {
    const util::MutexLock lock(intake_mu_);
    intake_.push_back(fd);
  }
  wake();
}

void RelayDaemon::start() {
  if (running_.exchange(true)) throw std::logic_error("daemon: already started");
  stop_requested_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void RelayDaemon::stop() {
  if (thread_.joinable()) {
    stop_requested_.store(true, std::memory_order_release);
    wake();
    thread_.join();
  }
  running_.store(false, std::memory_order_release);

  // Loop thread is gone (or never existed): finalize single-threaded.
  // Stop accepting first — later connects get RST instead of sitting in a
  // backlog nobody will ever serve.
  if (listen_fd_ >= 0) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  drain_intake();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    std::vector<net::Message> out;
    conn.session.close(CloseReason::kShutdown, ErrorCode::kShutdown,
                       "daemon: shutting down", out);
    queue_messages(conn, out);
    flush_writes(conn);  // one best-effort pass; a bounded abort, not a drain
    finish_conn(conn);
  }
}

void RelayDaemon::run() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    (void)poll_once(next_timeout_ms(obs::monotonic_ns()));
  }
}

bool RelayDaemon::poll_once(int timeout_ms) {
  drain_intake();
  epoll_event events[128];
  int n = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
  if (n < 0) n = 0;  // EINTR: fall through to the deadline sweep
  bool progress = n > 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t v = 0;
      (void)!::read(wake_fd_, &v, sizeof v);
      drain_intake();
      continue;
    }
    if (fd == listen_fd_) {
      accept_ready();
      continue;
    }
    handle_io(fd, events[i].events);
  }
  sweep_deadlines(obs::monotonic_ns());
  return progress;
}

void RelayDaemon::drain_intake() {
  std::vector<int> pending;
  {
    const util::MutexLock lock(intake_mu_);
    pending.swap(intake_);
  }
  for (const int fd : pending) add_connection(fd);
}

void RelayDaemon::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or transient): the loop will be re-armed
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    add_connection(fd);
  }
}

void RelayDaemon::add_connection(int fd) {
  if (open_conns_.load(std::memory_order_relaxed) >= opts_.max_connections) {
    ::close(fd);
    conns_refused_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  set_nonblocking(fd);
  const std::uint64_t salt = util::mix64(
      opts_.salt ^ conns_opened_.load(std::memory_order_relaxed) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(fd)) << 32));
  auto conn =
      std::make_unique<Conn>(fd, items_, salt, opts_.limits, opts_.protocol, epochs_);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    conns_refused_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  conn->interest = EPOLLIN;
  // Stamp activity so a connection that never sends a byte still ages into
  // the idle timeout.
  (void)conn->session.check_deadlines(obs::monotonic_ns());
  conns_.emplace(fd, std::move(conn));
  conns_opened_.fetch_add(1, std::memory_order_relaxed);
  open_conns_.fetch_add(1, std::memory_order_release);
  if (obs::Registry* reg = opts_.protocol.obs) {
    reg->gauge("daemon_connections_open")
        .set(static_cast<double>(open_conns_.load(std::memory_order_relaxed)));
  }
}

void RelayDaemon::handle_io(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Conn& conn = *it->second;

  if ((events & (EPOLLHUP | EPOLLERR)) != 0 && (events & EPOLLIN) == 0) {
    // Peer is gone and left nothing to read: a reset-style end.
    conn.session.on_eof();
    finish_conn(conn);
    return;
  }
  if ((events & EPOLLIN) != 0 && !conn.draining && !conn.paused) {
    handle_readable(conn);
    if (conns_.find(fd) == conns_.end()) return;  // closed during read
  }
  if ((events & EPOLLOUT) != 0) {
    if (!flush_writes(conn)) {
      conn.session.on_eof();
      finish_conn(conn);
      return;
    }
    if (conn.draining && conn.pending() == 0) {
      finish_conn(conn);
      return;
    }
  }
  update_interest(conn);
}

void RelayDaemon::handle_readable(Conn& conn) {
  std::uint8_t buf[65536];
  const std::uint64_t now = obs::monotonic_ns();
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      std::vector<net::Message> replies;
      const bool alive =
          conn.session.on_bytes(now, util::ByteView(buf, static_cast<std::size_t>(n)),
                                replies);
      queue_messages(conn, replies);
      if (!alive) {
        begin_drain_or_close(conn);
        return;
      }
      if (conn.pending() > opts_.limits.send_queue_hard_cap) {
        // The peer requested far more than it drains; its queue is full, so
        // an error frame could not be delivered anyway — abort.
        std::vector<net::Message> none;
        conn.session.close(CloseReason::kLimit, ErrorCode::kLimit,
                           "daemon: send queue hard cap", none);
        finish_conn(conn);
        return;
      }
      if (conn.pending() > opts_.limits.send_queue_cap) {
        conn.paused = true;  // backpressure: stop reading until drained
        break;
      }
      continue;
    }
    if (n == 0) {
      conn.session.on_eof();
      begin_drain_or_close(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn.session.on_eof();  // ECONNRESET and kin: transport died mid-session
    finish_conn(conn);
    return;
  }
  if (!flush_writes(conn)) {
    conn.session.on_eof();
    finish_conn(conn);
    return;
  }
  update_interest(conn);
}

void RelayDaemon::queue_messages(Conn& conn, const std::vector<net::Message>& msgs) {
  // Frames are laid down directly in the send queue — no per-frame buffer.
  for (const net::Message& msg : msgs) {
    net::encode_frame_into(conn.out, msg, opts_.limits.max_frame_payload);
  }
}

bool RelayDaemon::flush_writes(Conn& conn) {
  while (conn.pending() > 0) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_pos, conn.pending(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;  // EPIPE/ECONNRESET: peer is gone
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  } else if (conn.out_pos > (1U << 20)) {
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_pos));
    conn.out_pos = 0;
  }
  if (conn.paused && conn.pending() < opts_.limits.send_queue_cap / 2) {
    conn.paused = false;  // resume reading below the low watermark
  }
  return true;
}

void RelayDaemon::update_interest(Conn& conn) {
  std::uint32_t want = 0;
  if (conn.draining) {
    want = EPOLLOUT;
  } else {
    if (!conn.paused) want |= EPOLLIN;
    if (conn.pending() > 0) want |= EPOLLOUT;
  }
  if (want == conn.interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.interest = want;
  }
}

void RelayDaemon::begin_drain_or_close(Conn& conn) {
  if (!flush_writes(conn) || conn.pending() == 0) {
    finish_conn(conn);
    return;
  }
  // Closed session with queued bytes (typically its final error frame): give
  // the peer one bounded drain window, then close regardless.
  conn.draining = true;
  conn.drain_deadline_ns = obs::monotonic_ns() + opts_.drain_timeout_ns;
  update_interest(conn);
}

void RelayDaemon::finish_conn(Conn& conn) {
  const SessionStats& stats = conn.session.stats();
  sessions_ok_.fetch_add(stats.sessions_ok, std::memory_order_relaxed);
  sessions_failed_.fetch_add(stats.sessions_failed, std::memory_order_relaxed);
  const auto reason = static_cast<std::size_t>(conn.session.reason());
  closed_by_reason_[reason].fetch_add(1, std::memory_order_relaxed);
  conns_closed_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Registry* reg = opts_.protocol.obs) {
    reg->counter("daemon_conns_closed_total",
                 {{"reason", to_string(conn.session.reason())}})
        .inc();
  }
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  const int fd = conn.fd;
  conns_.erase(fd);  // destroys `conn`
  open_conns_.fetch_sub(1, std::memory_order_release);
  if (obs::Registry* reg = opts_.protocol.obs) {
    reg->gauge("daemon_connections_open")
        .set(static_cast<double>(open_conns_.load(std::memory_order_relaxed)));
  }
}

void RelayDaemon::sweep_deadlines(std::uint64_t now_ns) {
  dead_fds_.clear();
  for (const auto& [fd, conn] : conns_) {
    if (conn->draining) {
      if (now_ns >= conn->drain_deadline_ns) dead_fds_.push_back(fd);
      continue;
    }
    if (!conn->session.check_deadlines(now_ns)) dead_fds_.push_back(fd);
  }
  for (const int fd : dead_fds_) {
    const auto it = conns_.find(fd);
    if (it != conns_.end()) finish_conn(*it->second);
  }
}

int RelayDaemon::next_timeout_ms(std::uint64_t now_ns) const {
  std::uint64_t deadline = UINT64_MAX;
  for (const auto& [fd, conn] : conns_) {
    const std::uint64_t d =
        conn->draining ? conn->drain_deadline_ns : conn->session.next_deadline_ns();
    if (d < deadline) deadline = d;
  }
  if (deadline == UINT64_MAX) return 500;  // idle heartbeat; wake_fd_ cuts it short
  if (deadline <= now_ns) return 0;
  const std::uint64_t ms = (deadline - now_ns) / 1'000'000 + 1;
  return ms > 500 ? 500 : static_cast<int>(ms);
}

void RelayDaemon::wake() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
}

DaemonStats RelayDaemon::stats() const {
  DaemonStats s;
  s.conns_opened = conns_opened_.load(std::memory_order_relaxed);
  s.conns_closed = conns_closed_.load(std::memory_order_relaxed);
  s.conns_refused = conns_refused_.load(std::memory_order_relaxed);
  s.sessions_ok = sessions_ok_.load(std::memory_order_relaxed);
  s.sessions_failed = sessions_failed_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCloseReasonCount; ++i) {
    s.closed_by_reason[i] = closed_by_reason_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace graphene::daemon
