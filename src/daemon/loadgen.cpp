#include "daemon/loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "daemon/client.hpp"
#include "net/frame.hpp"
#include "obs/obs.hpp"
#include "util/wire_limits.hpp"

namespace graphene::daemon {
namespace {

struct ClientConn {
  explicit ClientConn(std::uint64_t max_payload) : reader(max_payload) {}

  int fd = -1;
  net::FrameReader reader;
  std::unique_ptr<ClientSession> session;
  util::Bytes out;
  std::size_t out_pos = 0;
  std::uint32_t sessions_done = 0;
  std::uint64_t session_start_ns = 0;
  bool connecting = true;  ///< nonblocking connect still in flight
  bool done = false;       ///< all sessions finished; draining, then close

  [[nodiscard]] std::size_t pending() const noexcept { return out.size() - out_pos; }
};

/// One worker's tallies; merged after join, so no locking anywhere.
struct WorkerResult {
  std::uint64_t sessions_ok = 0;
  std::uint64_t sessions_failed = 0;
  std::uint64_t conn_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::vector<std::uint64_t> latencies_ns;
};

class Worker {
 public:
  Worker(const LoadgenOptions& opts, std::uint32_t conns, std::uint64_t deadline_abs,
         std::latch& connected)
      : opts_(opts), n_conns_(conns), deadline_abs_(deadline_abs), connected_(connected) {}

  WorkerResult run() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      result_.conn_errors += n_conns_;
      arrive();
      return std::move(result_);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts_.port);
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(epoll_fd_);
      result_.conn_errors += n_conns_;
      arrive();
      return std::move(result_);
    }
    for (std::uint32_t i = 0; i < n_conns_; ++i) open_conn(addr);
    loop();
    arrive();  // left before connecting everything: release the other workers
    for (auto& [fd, conn] : conns_) {
      // Still open at the deadline (or after a loop abort): a failed peer.
      ++result_.conn_errors;
      ::close(fd);
      (void)conn;
    }
    conns_.clear();
    ::close(epoll_fd_);
    return std::move(result_);
  }

 private:
  void open_conn(const sockaddr_in& addr) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      ++result_.conn_errors;
      return;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const int rc = ::connect(
        fd, static_cast<const sockaddr*>(static_cast<const void*>(&addr)),
        sizeof addr);
    if (rc < 0 && errno != EINPROGRESS) {
      ::close(fd);
      ++result_.conn_errors;
      return;
    }
    auto conn = std::make_unique<ClientConn>(util::wire::kMaxFramePayload);
    conn->fd = fd;
    conn->connecting = rc != 0;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      ++result_.conn_errors;
      return;
    }
    conns_.emplace(fd, std::move(conn));
  }

  void start_session(ClientConn& conn) {
    conn.session = std::make_unique<ClientSession>(*opts_.items, opts_.protocol);
    queue(conn, conn.session->hello());
    conn.session_start_ns = obs::monotonic_ns();
  }

  void queue(ClientConn& conn, const net::Message& msg) {
    net::encode_frame_into(conn.out, msg);
  }

  /// Counts this worker's connect phase as over at the shared latch, once.
  void arrive() {
    if (arrived_) return;
    arrived_ = true;
    connected_.count_down();
  }

  void loop() {
    epoll_event events[64];
    while (!conns_.empty()) {
      if (!arrived_ && std::none_of(conns_.begin(), conns_.end(), [](const auto& entry) {
            return entry.second->connecting;
          })) {
        // Every connection of this worker is established. No hello goes out
        // until every worker's connections are too, so the daemon has all of
        // them queued (or accepted) before any session can finish and free a
        // slot under its live-connection cap: which connections it admits
        // cannot depend on how the workers interleave.
        arrive();
        connected_.wait();
        for (auto& [fd, conn] : conns_) {
          start_session(*conn);
          update_interest(*conn);
        }
      }
      const std::uint64_t now = obs::monotonic_ns();
      if (now >= deadline_abs_) return;  // survivors counted by run()
      const std::uint64_t left_ms = (deadline_abs_ - now) / 1'000'000 + 1;
      const int timeout = left_ms > 100 ? 100 : static_cast<int>(left_ms);
      const int n = ::epoll_wait(epoll_fd_, events, 64, timeout);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        handle(*it->second, events[i].events);
      }
    }
  }

  void handle(ClientConn& conn, std::uint32_t events) {
    if (conn.connecting) {
      if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
        drop(conn, /*error=*/true);
        return;
      }
      if ((events & EPOLLOUT) == 0) return;
      int err = 0;
      socklen_t len = sizeof err;
      if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
        drop(conn, /*error=*/true);
        return;
      }
      conn.connecting = false;
    }
    if ((events & EPOLLIN) != 0 && !readable(conn)) return;
    if (!flush(conn)) {
      drop(conn, /*error=*/true);
      return;
    }
    if (conn.done && conn.pending() == 0) {
      drop(conn, /*error=*/false);
      return;
    }
    update_interest(conn);
  }

  /// Returns false if the connection was dropped.
  bool readable(ClientConn& conn) {
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buf, sizeof buf);
      if (n > 0) {
        result_.bytes_in += static_cast<std::uint64_t>(n);
        try {
          conn.reader.absorb(util::ByteView(buf, static_cast<std::size_t>(n)));
          if (!dispatch_frames(conn)) return false;
        } catch (const util::DeserializeError&) {
          drop(conn, /*error=*/true);
          return false;
        }
        continue;
      }
      if (n == 0) {
        drop(conn, /*error=*/!conn.done);
        return false;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      drop(conn, /*error=*/true);
      return false;
    }
  }

  /// Returns false if the connection was dropped.
  bool dispatch_frames(ClientConn& conn) {
    while (std::optional<net::Message> msg = conn.reader.next()) {
      if (!conn.session) {
        drop(conn, /*error=*/true);  // daemon spoke outside a session
        return false;
      }
      std::vector<net::Message> replies;
      const ClientSession::Status status = conn.session->on_message(*msg, replies);
      for (const net::Message& reply : replies) queue(conn, reply);
      if (status == ClientSession::Status::kInFlight) continue;
      const std::uint64_t latency = obs::monotonic_ns() - conn.session_start_ns;
      result_.latencies_ns.push_back(latency);
      if (status == ClientSession::Status::kComplete) {
        ++result_.sessions_ok;
      } else {
        ++result_.sessions_failed;
      }
      conn.session.reset();
      if (++conn.sessions_done >= opts_.sessions_per_conn) {
        conn.done = true;  // drain the bye, then close
        break;
      }
      start_session(conn);
    }
    return true;
  }

  /// Returns false on a dead transport.
  bool flush(ClientConn& conn) {
    while (conn.pending() > 0) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                               conn.pending(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<std::size_t>(n);
        result_.bytes_out += static_cast<std::uint64_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (conn.out_pos == conn.out.size()) {
      conn.out.clear();
      conn.out_pos = 0;
    }
    return true;
  }

  void update_interest(ClientConn& conn) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    if (conn.connecting || conn.pending() > 0) ev.events |= EPOLLOUT;
    ev.data.fd = conn.fd;
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void drop(ClientConn& conn, bool error) {
    if (error) ++result_.conn_errors;
    const int fd = conn.fd;
    ::close(fd);
    conns_.erase(fd);  // destroys `conn`
  }

  const LoadgenOptions& opts_;
  std::uint32_t n_conns_;
  std::uint64_t deadline_abs_;
  std::latch& connected_;
  bool arrived_ = false;
  int epoll_fd_ = -1;
  std::unordered_map<int, std::unique_ptr<ClientConn>> conns_;
  WorkerResult result_;
};

std::uint64_t quantile_ns(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& opts) {
  if (opts.items == nullptr) throw std::runtime_error("loadgen: no client item set");
  if (opts.connections == 0) throw std::runtime_error("loadgen: zero connections");
  const std::uint32_t workers = std::max<std::uint32_t>(1, opts.workers);

  const std::uint64_t start_ns = obs::monotonic_ns();
  const std::uint64_t deadline_abs = start_ns + opts.deadline_ns;

  std::vector<WorkerResult> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  // Sessions start only once every worker has finished connecting.
  std::latch connected(static_cast<std::ptrdiff_t>(workers));
  for (std::uint32_t w = 0; w < workers; ++w) {
    // Spread connections evenly; the first `connections % workers` workers
    // take one extra.
    const std::uint32_t share =
        opts.connections / workers + (w < opts.connections % workers ? 1 : 0);
    threads.emplace_back([&opts, &results, &connected, w, share, deadline_abs] {
      Worker worker(opts, share, deadline_abs, connected);
      results[w] = worker.run();
    });
  }
  for (std::thread& t : threads) t.join();
  const std::uint64_t elapsed = obs::monotonic_ns() - start_ns;

  LoadgenReport report;
  report.elapsed_ns = elapsed;
  std::vector<std::uint64_t> latencies;
  for (WorkerResult& r : results) {
    report.sessions_ok += r.sessions_ok;
    report.sessions_failed += r.sessions_failed;
    report.conn_errors += r.conn_errors;
    report.bytes_in += r.bytes_in;
    report.bytes_out += r.bytes_out;
    latencies.insert(latencies.end(), r.latencies_ns.begin(), r.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.p50_ns = quantile_ns(latencies, 0.50);
  report.p95_ns = quantile_ns(latencies, 0.95);
  report.p99_ns = quantile_ns(latencies, 0.99);
  if (elapsed > 0) {
    report.sessions_per_sec = static_cast<double>(report.sessions_ok) * 1e9 /
                              static_cast<double>(elapsed);
  }
  if (obs::Registry* reg = opts.protocol.obs) {
    auto& hist = reg->histogram("loadgen_session_ns");
    for (const std::uint64_t v : latencies) hist.observe(v);
  }
  return report;
}

}  // namespace graphene::daemon
