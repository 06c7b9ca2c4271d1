// sync_graphene / sync_rateless: the relay daemon over TCP on 127.0.0.1.
//
// One RelayDaemon serves two peers, each a TCP connection that runs
// back-to-back sessions (a closed loop: a peer sends its next hello only
// when the last session is verified). Each peer cycles through four client
// sets whose divergence from the daemon set is (host-only, client-only) =
// (10,10), (50,5), (100,100), (400,40) — the cells of bench_backend_matrix —
// so a quarter of all sessions are in the heaviest class.
//
// One thread drives everything: it writes a peer's frames to its socket,
// steps the daemon's epoll loop with RelayDaemon::poll_once(0), and reads
// the replies, the peers taking turns session by session. The daemon runs
// its real accept/read/write/epoll path over real sockets, but no thread
// ever sleeps: with a service thread and client threads, wake-up latency on
// a shared VM set the p99 (its spread over ten runs reached 33–48%).
//
// Determinism: connections are opened one at a time, each accepted before
// the next socket exists, so accept order and descriptor numbers — both of
// which key the daemon's per-connection salt — repeat from run to run;
// DaemonOptions::salt comes from the seed.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/session.hpp"
#include "daemon/wire.hpp"
#include "iblt/param_cache.hpp"
#include "net/frame.hpp"
#include "reconcile/graphene_backend.hpp"
#include "reconcile/rateless_backend.hpp"
#include "trace.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace graphene;

/// Inputs and salts are shared by both sync workloads (only the backend
/// differs), so one seed compares the backends on identical sets.
constexpr const char* kInputsName = "sync";
constexpr std::uint64_t kDaemonItems = 2'400;
struct Cell {
  std::uint64_t host_only;
  std::uint64_t client_only;
};
constexpr std::array<Cell, 4> kCells = {{{10, 10}, {50, 5}, {100, 100}, {400, 40}}};
constexpr std::uint64_t kPeers = 2;
/// Warm-up sessions per peer before anything is timed: one per cell, which
/// fills the ParamCache for every set size.
constexpr std::uint64_t kWarmupSessions = kCells.size();
constexpr std::uint64_t kWaitNs = 10'000'000'000ULL;

/// Nominal session rates (both peers together) that turn --seconds into a
/// fixed session count.
double sessions_per_second(bool rateless) { return rateless ? 100.0 : 250.0; }

struct Inputs {
  reconcile::ItemSet daemon_set;
  std::array<reconcile::ItemSet, kCells.size()> client_sets;
};

reconcile::ItemDigest random_digest(util::Rng& rng) {
  reconcile::ItemDigest d;
  for (std::size_t i = 0; i < d.size(); i += 8) {
    const std::uint64_t word = rng.next();
    for (std::size_t b = 0; b < 8; ++b) d[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
  return d;
}

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  util::Rng rng(derive(seed, kInputsName, "inputs"));
  auto in = std::make_unique<Inputs>();
  std::vector<reconcile::ItemDigest> items;
  items.reserve(kDaemonItems);
  while (items.size() < kDaemonItems) {
    const reconcile::ItemDigest d = random_digest(rng);
    if (in->daemon_set.insert(d).second) items.push_back(d);
  }
  for (std::size_t c = 0; c < kCells.size(); ++c) {
    reconcile::ItemSet& client = in->client_sets[c];
    client = in->daemon_set;
    for (std::uint64_t i = 0; i < kCells[c].host_only; ++i) {
      const std::uint64_t j = i + rng.below(items.size() - i);
      std::swap(items[i], items[j]);
      client.erase(items[i]);
    }
    std::uint64_t added = 0;
    while (added < kCells[c].client_only) {
      const reconcile::ItemDigest d = random_digest(rng);
      if (in->daemon_set.count(d) == 0 && client.insert(d).second) ++added;
    }
  }
  return in;
}

/// Cell of peer `p`'s `k`-th session (warm-up included); peer 1 runs two
/// cells behind peer 0.
std::size_t cell_of(std::uint64_t p, std::uint64_t k) { return (2 * p + k) % kCells.size(); }

core::ProtocolConfig client_config(bool rateless, iblt::ParamCache* cache) {
  core::ProtocolConfig cfg;
  cfg.reconcile_backend =
      rateless ? core::ReconcileBackend::kRatelessIblt : core::ReconcileBackend::kGraphene;
  cfg.param_cache = cache;
  return cfg;
}

/// A non-blocking TCP client connection speaking frames.
class ClientConn {
 public:
  explicit ClientConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    const int one = 1;
    (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    // The kernel completes the handshake against the listen backlog, so a
    // blocking connect returns before the daemon accepts.
    if (::connect(fd_, static_cast<const sockaddr*>(static_cast<const void*>(&addr)),
                  sizeof addr) != 0 ||
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK) != 0) {
      const std::string what = std::strerror(errno);
      close();
      throw std::runtime_error("connect: " + what);
    }
  }
  ~ClientConn() { close(); }
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;
  ClientConn(ClientConn&&) = delete;
  ClientConn& operator=(ClientConn&&) = delete;

  void close() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Frames and sends `msg`, calling `drain()` (a daemon step) whenever the
  /// socket buffer is full; returns the framed size.
  template <typename Drain>
  std::size_t send(const net::Message& msg, Drain drain) {
    out_.clear();
    net::encode_frame_into(out_, msg);
    std::size_t at = 0;
    while (at < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + at, out_.size() - at, MSG_NOSIGNAL);
      if (n > 0) {
        at += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        drain();
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error("send: " + std::string(std::strerror(errno)));
      }
    }
    return out_.size();
  }

  /// The next whole frame already received, if any; never blocks.
  std::optional<net::Message> poll() {
    for (;;) {
      if (std::optional<net::Message> msg = reader_.next()) return msg;
      const ssize_t n = ::read(fd_, buf_.data(), buf_.size());
      if (n > 0) {
        reader_.absorb(util::ByteView(buf_.data(), static_cast<std::size_t>(n)));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return std::nullopt;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throw std::runtime_error(n == 0 ? "daemon closed the connection"
                                        : "read: " + std::string(std::strerror(errno)));
      }
    }
  }

 private:
  int fd_ = -1;
  net::FrameReader reader_;
  util::Bytes out_;
  std::array<std::uint8_t, 65536> buf_{};
};

/// A daemon, its connected peers and their ParamCache: one set-up.
struct Setup {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<iblt::ParamCache> cache;
  std::unique_ptr<daemon::RelayDaemon> relay;
  std::vector<std::unique_ptr<ClientConn>> conns;
  core::ProtocolConfig cfg;
  std::uint64_t sessions_run = 0;
  std::uint64_t sessions_failed = 0;
  std::uint64_t host_cpu_ns = 0;  ///< thread CPU inside the daemon's loop

  /// One non-blocking iteration of the daemon's epoll loop.
  void step() {
    const std::uint64_t c0 = thread_cpu_ns();
    (void)relay->poll_once(0);
    host_cpu_ns += thread_cpu_ns() - c0;
  }

  /// Steps the daemon until `done()`; false after kWaitNs without it.
  template <typename Pred>
  bool step_until(Pred done) {
    const std::uint64_t deadline = now_ns() + kWaitNs;
    while (!done()) {
      if (now_ns() > deadline) return false;
      step();
    }
    return true;
  }

  /// One hello..bye session of peer `p`, timed from the hello to the
  /// verified outcome. Throws on a transport failure, a stall or a daemon
  /// error frame; a wrong set reported as complete goes to `errors`.
  SessionRecord session(std::uint64_t p, std::size_t cls, Errors& errors) {
    SessionRecord rec;
    rec.cls = static_cast<std::uint8_t>(cls);
    ClientConn& conn = *conns[p];
    const auto drain = [this] { step(); };
    daemon::ClientSession cs(in->client_sets[cls], cfg);
    const std::uint64_t host0 = host_cpu_ns;
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    rec.wire_bytes += conn.send(cs.hello(), drain);
    std::vector<net::Message> out;
    auto status = daemon::ClientSession::Status::kInFlight;
    const bool finished = step_until([&] {
      while (status == daemon::ClientSession::Status::kInFlight) {
        std::optional<net::Message> msg = conn.poll();
        if (!msg) return false;
        rec.wire_bytes += msg->wire_size();
        out.clear();
        status = cs.on_message(*msg, out);
        for (const net::Message& reply : out) rec.wire_bytes += conn.send(reply, drain);
      }
      return true;
    });
    if (!finished) throw std::runtime_error("session stalled");
    if (const daemon::ErrorMsg* err = cs.daemon_error()) {
      throw std::runtime_error("daemon error frame: " + err->detail);
    }
    if (status == daemon::ClientSession::Status::kComplete) {
      if (cs.outcome().host_set == in->daemon_set) {
        rec.ok = true;
      } else {
        errors.push_back("session reported a wrong host set as complete");
      }
    }
    rec.round_trips = cs.rounds() + 1;  // + the hello → first reply exchange
    rec.wall_ns = now_ns() - t0;
    rec.cpu_ns = process_cpu_ns() - cpu0;
    rec.host_cpu_ns = host_cpu_ns - host0;
    ++sessions_run;
    sessions_failed += rec.ok ? 0 : 1;
    return rec;
  }
};

/// A daemon with its peers connected and warmed up. Each pass has its own
/// daemon salt, so no two passes repeat a session's salts.
std::unique_ptr<Setup> set_up(std::uint64_t seed, bool rateless, std::uint64_t pass,
                              Errors& errors) {
  auto s = std::make_unique<Setup>();
  s->in = make_inputs(seed);
  s->cache = std::make_unique<iblt::ParamCache>();
  s->cfg = client_config(rateless, s->cache.get());
  daemon::DaemonOptions opts;
  opts.salt = derive(seed, kInputsName, "daemon_salt", pass);
  opts.protocol.param_cache = s->cache.get();
  s->relay = std::make_unique<daemon::RelayDaemon>(s->in->daemon_set, opts);
  const std::uint16_t port = s->relay->listen("127.0.0.1", 0);
  for (std::uint64_t p = 0; p < kPeers; ++p) {
    s->conns.push_back(std::make_unique<ClientConn>(port));
    if (!s->step_until([&] { return s->relay->stats().conns_opened >= p + 1; })) {
      errors.push_back("daemon did not accept connection " + std::to_string(p));
      return s;
    }
  }
  for (std::uint64_t k = 0; k < kWarmupSessions; ++k) {
    for (std::uint64_t p = 0; p < kPeers; ++p) (void)s->session(p, cell_of(p, k), errors);
  }
  return s;
}

/// Closes the peers, steps the daemon until it has seen each clean close,
/// stops it, and checks its books against what the peers ran.
void tear_down(Setup& s, Counters& c, Errors& errors) {
  for (auto& conn : s.conns) conn->close();
  if (!s.step_until([&] { return s.relay->stats().conns_closed >= s.conns.size(); })) {
    errors.push_back("daemon did not see every peer close");
  }
  s.relay->stop();
  if (s.relay->open_connections() != 0) {
    errors.push_back("connection still open after stop()");
  }
  const daemon::DaemonStats st = s.relay->stats();
  const auto peer_closed =
      st.closed_by_reason[static_cast<std::size_t>(daemon::CloseReason::kPeerClosed)];
  if (peer_closed != s.conns.size() || st.conns_refused != 0) {
    errors.push_back("daemon closed a connection for a reason other than a clean peer close");
  }
  if (st.sessions_ok + st.sessions_failed != s.sessions_run ||
      st.sessions_failed != s.sessions_failed) {
    errors.push_back("daemon session accounting disagrees with the peers");
  }
  c["daemon.conns_opened"] += st.conns_opened;
  c["daemon.typed_closes"] += st.conns_closed - peer_closed;
}

/// One timed pass: the peers take turns, `per_peer` sessions each, after
/// the warm-up sessions of set_up().
void timed_pass(Setup& s, std::uint64_t per_peer, std::uint32_t pass, E2eRun& run,
                Errors& errors) {
  try {
    for (std::uint64_t k = kWarmupSessions; k < kWarmupSessions + per_peer; ++k) {
      for (std::uint64_t p = 0; p < kPeers; ++p) {
        SessionRecord rec = s.session(p, cell_of(p, k), errors);
        rec.pass = pass;
        run.sessions.push_back(rec);
      }
    }
  } catch (const std::exception& e) {
    run.counters["daemon.conn_errors"] += 1;
    errors.push_back(std::string("peer connection: ") + e.what());
  }
}

// --- traced run -------------------------------------------------------------

/// Parses `payload` as `Msg` (net.parse) and serializes it back
/// (net.serialize); the bytes must round-trip exactly.
template <typename Msg>
void reparse(const util::Bytes& payload, Tracer& t, std::uint64_t session, Errors& errors) {
  std::optional<Msg> msg;
  {
    const Span s(&t, "net.parse", session);
    util::ByteReader r{util::ByteView(payload)};
    msg.emplace(Msg::deserialize(r));
  }
  util::Bytes again;
  {
    const Span s(&t, "net.serialize", session);
    again = msg->serialize();
  }
  if (again != payload) errors.push_back("a message did not re-serialize byte for byte");
}

void reexecute_net(const std::vector<net::Message>& sent, Tracer& t, std::uint64_t session,
                   Errors& errors) {
  using net::MessageType;
  for (const net::Message& m : sent) {
    const util::Bytes& p = m.payload;
    switch (m.type) {
      case MessageType::kDaemonHello:
        reparse<daemon::HelloMsg>(p, t, session, errors);
        break;
      case MessageType::kDaemonBye:
        reparse<daemon::ByeMsg>(p, t, session, errors);
        break;
      case MessageType::kReconcileOffer:
        reparse<reconcile::Offer>(p, t, session, errors);
        break;
      case MessageType::kReconcileRequest:
        reparse<reconcile::Request>(p, t, session, errors);
        break;
      case MessageType::kReconcileResponse:
        reparse<reconcile::Response>(p, t, session, errors);
        break;
      case MessageType::kReconcileFetch:
        reparse<reconcile::FetchRequest>(p, t, session, errors);
        break;
      case MessageType::kReconcileFetchResponse:
        reparse<reconcile::FetchResponse>(p, t, session, errors);
        break;
      case MessageType::kRatelessChunk:
        reparse<reconcile::RatelessChunk>(p, t, session, errors);
        break;
      case MessageType::kRatelessNeed:
        reparse<reconcile::RatelessNeed>(p, t, session, errors);
        break;
      default:
        errors.push_back("unexpected message type in a sync session");
        break;
    }
  }
  const Span s(&t, "net.checksum", session);
  for (const net::Message& m : sent) (void)net::frame_checksum(util::ByteView(m.payload));
}

/// ClientSession ↔ PeerSession over byte buffers: the daemon's protocol path
/// without sockets or the epoll loop.
class InProcessPeer {
 public:
  InProcessPeer(const Setup& s, std::uint64_t conn_salt)
      : s_(&s), peer_(s.in->daemon_set, conn_salt, daemon::DaemonLimits{}, daemon_config(s)) {}

  SessionRecord session(const reconcile::ItemSet& client_set, std::size_t cls,
                        std::uint64_t id, Errors& errors, Tracer* t = nullptr,
                        Counters* c = nullptr, std::vector<net::Message>* sent = nullptr) {
    SessionRecord rec;
    rec.cls = static_cast<std::uint8_t>(cls);
    const std::uint64_t t0 = now_ns();
    std::optional<Span> root;
    if (t != nullptr) root.emplace(t, "replay.daemon", id);
    std::optional<daemon::ClientSession> cs;
    std::vector<net::Message> to_daemon;
    {
      const Span s(t, "daemon.client", id);
      cs.emplace(client_set, s_->cfg);
      to_daemon.push_back(cs->hello());
    }
    std::vector<net::Message> to_client;
    auto status = daemon::ClientSession::Status::kInFlight;
    while (!to_daemon.empty()) {
      buf_.clear();
      {
        const Span s(t, "net.frame_encode", id);
        for (const net::Message& m : to_daemon) net::encode_frame_into(buf_, m);
      }
      note(to_daemon, rec, c, sent);
      to_daemon.clear();
      to_client.clear();
      bool alive = false;
      {
        const Span s(t, "daemon.peer", id);
        alive = peer_.on_bytes(now_ns(), util::ByteView(buf_), to_client);
      }
      if (!alive) throw std::runtime_error("in-process daemon session closed");
      if (to_client.empty()) break;  // the bye needs no answer
      buf_.clear();
      {
        const Span s(t, "net.frame_encode", id);
        for (const net::Message& m : to_client) net::encode_frame_into(buf_, m);
      }
      note(to_client, rec, c, sent);
      std::vector<net::Message> got;
      {
        const Span s(t, "net.frame_decode", id);
        reader_.absorb(util::ByteView(buf_));
        while (std::optional<net::Message> m = reader_.next()) got.push_back(std::move(*m));
      }
      {
        const Span s(t, "daemon.client", id);
        for (const net::Message& m : got) status = cs->on_message(m, to_daemon);
      }
    }
    if (cs->daemon_error() != nullptr) throw std::runtime_error("daemon error frame");
    if (status == daemon::ClientSession::Status::kComplete) {
      if (cs->outcome().host_set == s_->in->daemon_set) {
        rec.ok = true;
      } else {
        errors.push_back("in-process session reported a wrong host set as complete");
      }
    }
    rec.round_trips = cs->rounds() + 1;
    root.reset();
    rec.wall_ns = now_ns() - t0;
    return rec;
  }

 private:
  static core::ProtocolConfig daemon_config(const Setup& s) {
    core::ProtocolConfig proto;
    proto.param_cache = s.cache.get();
    return proto;
  }

  static void note(const std::vector<net::Message>& msgs, SessionRecord& rec, Counters* c,
                   std::vector<net::Message>* sent) {
    for (const net::Message& m : msgs) {
      rec.wire_bytes += m.wire_size();
      if (c != nullptr) add_frame_bytes(*c, m);
      if (sent != nullptr) sent->push_back(m);
    }
  }

  const Setup* s_;
  daemon::PeerSession peer_;
  util::Bytes buf_;
  net::FrameReader reader_;
};

/// bloom::contains_all of `filter` over `scanned`; a hit on an item the
/// other side (`truth`) does not hold is a false positive.
void bloom_pass(const bloom::BloomFilter& filter, const reconcile::ItemSet& scanned,
                const reconcile::ItemSet& truth, std::uint64_t id, Tracer& t, Counters& c) {
  std::vector<const reconcile::ItemDigest*> digests;
  std::vector<util::ByteView> views;
  digests.reserve(scanned.size());
  views.reserve(scanned.size());
  for (const reconcile::ItemDigest& d : scanned) {
    digests.push_back(&d);
    views.emplace_back(d.data(), d.size());
  }
  std::vector<std::uint8_t> hit(views.size());
  {
    const Span sp(&t, "bloom.scan", id);
    bloom::contains_all(filter, views.data(), views.size(), hit.data());
  }
  c["bloom.items_scanned"] += views.size();
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (hit[i] != 0 && truth.count(*digests[i]) == 0) ++c["bloom.false_positives"];
  }
}

/// The same session through the bare reconcile backends: no daemon framing,
/// hello or bye, which separates backend time from the daemon's own.
void backend_session(const Setup& s, const reconcile::ItemSet& client_set,
                     std::uint64_t salt, std::uint64_t id, Tracer& t, Counters& c,
                     Errors& errors) {
  const core::ProtocolConfig& cfg = s.cfg;
  std::vector<reconcile::WireMsg> host_msgs;
  std::vector<reconcile::WireMsg> client_msgs;
  reconcile::Outcome outcome;
  {
    const Span root(&t, "replay.backend", id);
    std::unique_ptr<reconcile::HostBackend> host;
    reconcile::WireMsg msg;
    {
      const Span sp(&t, "reconcile.host_open", id);
      host = reconcile::make_host_backend(s.in->daemon_set, salt, cfg);
      msg = host->open(client_set.size());
    }
    std::unique_ptr<reconcile::ClientBackend> client;
    for (;;) {
      host_msgs.push_back(msg);
      {
        const Span sp(&t, "reconcile.client_absorb", id);
        if (!client) client = reconcile::make_client_backend(client_set, cfg);
        outcome = client->absorb_wire(msg);
      }
      if (!reconcile::needs_more(outcome.status)) break;
      if (client_msgs.size() >= cfg.reconcile_round_cap) break;
      reconcile::WireMsg req;
      {
        const Span sp(&t, "reconcile.client_request", id);
        req = client->next_request();
      }
      client_msgs.push_back(req);
      {
        const Span sp(&t, "reconcile.host_serve", id);
        msg = host->serve_wire(req);
      }
    }
  }
  ++c["backend.sessions"];
  if (outcome.status == reconcile::Outcome::Status::kComplete) {
    if (outcome.host_set == s.in->daemon_set) {
      ++c["backend.ok"];
    } else {
      errors.push_back("backend session reported a wrong host set as complete");
    }
  }

  // Counts where the work happens, taken after the session's spans. The two
  // Bloom passes of a Graphene session (the client's over its set with the
  // offer's S, the host's over its set with the request's R) run again on
  // the same filters.
  for (const reconcile::WireMsg& m : client_msgs) {
    util::ByteReader r{util::ByteView(m.payload)};
    if (m.type == net::MessageType::kReconcileRequest) {
      ++c["graphene.request_round"];
      const reconcile::Request req = reconcile::Request::deserialize(r);
      bloom_pass(req.filter, s.in->daemon_set, client_set, id, t, c);
    }
    if (m.type == net::MessageType::kReconcileFetch) ++c["graphene.fetch_round"];
  }
  for (const reconcile::WireMsg& m : host_msgs) {
    util::ByteReader r{util::ByteView(m.payload)};
    if (m.type == net::MessageType::kRatelessChunk) {
      c["rateless.symbols_sent"] += reconcile::RatelessChunk::deserialize(r).symbols.size();
    } else if (m.type == net::MessageType::kReconcileResponse) {
      c["iblt.cells"] += reconcile::Response::deserialize(r).correction.cell_count();
    } else if (m.type == net::MessageType::kReconcileOffer) {
      const reconcile::Offer offer = reconcile::Offer::deserialize(r);
      c["iblt.cells"] += offer.correction.cell_count();
      bloom_pass(offer.filter, client_set, s.in->daemon_set, id, t, c);
    }
  }
  c["rateless.symbols_consumed"] += outcome.symbols_consumed;
}

}  // namespace

void run_sync(const Options& opts, bool rateless, graphene::obs::json::Writer& w,
              Errors& errors) {
  const std::uint64_t per_peer =
      pass_sessions(opts, sessions_per_second(rateless), kPeers * kCells.size()) / kPeers;
  // A traced run needs one pass of daemon sessions, for daemon.io_wait_ms.
  const std::uint64_t passes = opts.trace ? 1 : kPasses;
  const std::uint64_t setups = opts.trace ? 1 : kSetupsPerPass;
  E2eRun timed;
  timed.sessions.reserve(passes * per_peer * kPeers);
  std::unique_ptr<Setup> s;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (std::uint64_t rep = 0; rep < setups; ++rep) {
      if (s) tear_down(*s, timed.counters, errors);
      s.reset();  // the last set-up's daemon and sockets are gone first
      const std::uint64_t t0 = timed.setup_ns.empty() ? process_start_ns() : now_ns();
      s = set_up(opts.seed, rateless, pass, errors);
      timed.setup_ns.push_back(now_ns() - t0);
      timed.counters["daemon.warmup_sessions"] += s->sessions_run;
      if (!errors.empty()) return;
    }
    timed_pass(*s, per_peer, static_cast<std::uint32_t>(pass), timed, errors);
  }
  tear_down(*s, timed.counters, errors);

  if (!opts.trace) {
    w.key("e2e");
    write_e2e(w, timed);
    return;
  }
  if (!errors.empty()) return;

  // In-process replays of the same mix. Untraced and traced sessions of the
  // same peer, cell and session index alternate, so drift hits both sides
  // of trace.overhead_share alike; then the same session through the bare
  // backends, then the re-executions.
  Tracer tracer;
  Counters counters = timed.counters;
  std::vector<std::uint64_t> untraced_ns;
  std::vector<std::unique_ptr<InProcessPeer>> plain;
  std::vector<std::unique_ptr<InProcessPeer>> traced;
  for (std::uint64_t p = 0; p < kPeers; ++p) {
    const std::uint64_t conn_salt = derive(opts.seed, kInputsName, "replay_conn_salt", p);
    plain.push_back(std::make_unique<InProcessPeer>(*s, conn_salt));
    traced.push_back(std::make_unique<InProcessPeer>(*s, conn_salt));
    for (std::uint64_t k = 0; k < kWarmupSessions; ++k) {
      const std::size_t c = cell_of(p, k);
      (void)plain[p]->session(s->in->client_sets[c], c, 0, errors);
      (void)traced[p]->session(s->in->client_sets[c], c, 0, errors);
    }
  }
  std::uint64_t id = 0;
  try {
    for (std::uint64_t k = kWarmupSessions; k < kWarmupSessions + per_peer; ++k) {
      for (std::uint64_t p = 0; p < kPeers; ++p, ++id) {
        const std::size_t c = cell_of(p, k);
        const reconcile::ItemSet& set = s->in->client_sets[c];
        untraced_ns.push_back(plain[p]->session(set, c, id, errors).wall_ns);
        std::vector<net::Message> sent;
        const SessionRecord rec =
            traced[p]->session(set, c, id, errors, &tracer, &counters, &sent);
        ++counters["sessions"];
        counters["ok"] += rec.ok ? 1 : 0;
        counters["wire_bytes"] += rec.wire_bytes;
        backend_session(*s, set, derive(opts.seed, kInputsName, "backend_salt", id), id,
                        tracer, counters, errors);
        reexecute_net(sent, tracer, id, errors);
      }
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("in-process replay: ") + e.what());
    return;
  }
  std::vector<std::uint64_t> e2e_wall_ns;
  for (const SessionRecord& r : timed.sessions) e2e_wall_ns.push_back(r.wall_ns);
  write_trace(w, id, "replay.daemon", untraced_ns, e2e_wall_ns, counters, tracer);
}

}  // namespace perfbench
