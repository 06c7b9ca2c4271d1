// Per-connection protocol state machine of the relay daemon.
//
// PeerSession is deliberately transport-free: it consumes raw stream bytes
// and produces net::Messages to transmit, never touching a socket or a real
// clock. The epoll daemon (daemon.hpp) feeds it what the kernel delivered;
// the deterministic harness (tests/daemon/) feeds it scripted partial reads,
// corrupted bytes, and fake-clock time — the same state machine either way,
// which is what makes the fault suite's guarantees transfer to production.
//
// Lifecycle of one connection:
//
//   kAwaitHello --hello--> kServing --bye--> kAwaitHello   (next session)
//        |                    |
//        +----- any error, cap, timeout, or EOF ----> kClosed(reason)
//
// Termination guarantees (mirroring tests/faults/): every input sequence
// drives the session to kClosed with a typed CloseReason in bounded work —
// malformed frames and backend rejections close kProtocolError/kMalformed
// after an error frame; policy caps (messages per session, sessions per
// connection) close kLimit; a reply whose payload exceeds max_frame_payload
// is never sent, and closes kLimit after an error frame instead; silence
// closes kIdleTimeout and an over-long session kSessionTimeout via
// check_deadlines(). A session never blocks, so a connection can only hang
// if its owner stops calling in — and the daemon's loop always does under
// epoll timeouts.
//
// Rateless sessions read a coded-symbol stream shared by a salt epoch
// (RatelessEpochs): a daemon's sessions share one epoch state, and a
// PeerSession built on its own keeps one of its own. Graphene sessions keep
// a fresh salt each, since their 8-byte short IDs are what a peer could
// grind collisions against (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "daemon/wire.hpp"
#include "graphene/params.hpp"
#include "net/frame.hpp"
#include "reconcile/backend.hpp"
#include "reconcile/rateless_backend.hpp"
#include "reconcile/types.hpp"

namespace graphene::obs {
class Registry;
}  // namespace graphene::obs

namespace graphene::daemon {

/// Policy knobs of one daemon instance. Defaults are sized for the bench's
/// localhost load; tests shrink them to make every limit reachable.
struct DaemonLimits {
  /// Hard ceiling on one frame's payload, both ways: the FrameReader's cap,
  /// and the largest reply the session sends (a larger one closes kLimit).
  std::uint64_t max_frame_payload = util::wire::kMaxFramePayload;
  /// Messages the peer may send within one hello..bye session. The Graphene
  /// backend needs ≤ 3 (request, fetch, bye); rateless needs one per chunk,
  /// bounded by the round cap — 256 covers both with an order of magnitude
  /// of slack.
  std::uint32_t session_msg_cap = 256;
  /// Sessions one connection may run before the daemon closes it (resource
  /// rotation; 0 = unlimited).
  std::uint32_t conn_session_cap = 0;
  /// Pending outbound bytes at which the daemon stops reading from the peer
  /// (backpressure watermark).
  std::size_t send_queue_cap = 1 << 20;
  /// Pending outbound bytes at which the daemon gives up on the peer
  /// entirely: a reply burst this far beyond the watermark means the peer
  /// drains slower than it asks.
  std::size_t send_queue_hard_cap = 4 << 20;
  /// Nanoseconds of silence before an open connection is closed.
  std::uint64_t idle_timeout_ns = 30ULL * 1000 * 1000 * 1000;
  /// Nanoseconds one hello..bye session may take end to end.
  std::uint64_t session_timeout_ns = 60ULL * 1000 * 1000 * 1000;
};

/// Why a connection ended. Stable order: these index metrics labels and the
/// soak suite's accounting.
enum class CloseReason : std::uint8_t {
  kOpen = 0,        ///< not closed yet
  kPeerClosed,      ///< clean EOF between sessions
  kPeerReset,       ///< EOF mid-session or mid-frame
  kMalformed,       ///< framing/deserialization error from this peer
  kProtocolError,   ///< backend rejected a request (typed ProtocolError)
  kLimit,           ///< a DaemonLimits cap tripped
  kIdleTimeout,
  kSessionTimeout,
  kShutdown,        ///< daemon stopping
};

[[nodiscard]] const char* to_string(CloseReason reason) noexcept;
inline constexpr std::size_t kCloseReasonCount =
    static_cast<std::size_t>(CloseReason::kShutdown) + 1;

/// Counters one session accumulates; the daemon aggregates these into its
/// registry when the connection closes.
struct SessionStats {
  std::uint64_t sessions_ok = 0;      ///< bye with ok=1
  std::uint64_t sessions_failed = 0;  ///< bye with ok=0
  std::uint64_t messages_in = 0;      ///< complete frames consumed
  std::uint64_t messages_out = 0;     ///< messages produced
};

/// Rateless hellos served from one salt epoch's stream. The next hello
/// starts a new epoch, with a new salt and a stream built afresh. A count of
/// sessions, not a time, so a run repeats exactly. DESIGN.md §8 says why 64.
inline constexpr std::uint32_t kRatelessEpochSessions = 64;

/// The rateless salt epochs of one daemon: every rateless session takes the
/// current epoch's coded-symbol stream, built on the epoch's first hello, so
/// the set is encoded once per epoch instead of once per session. The epoch
/// salt is derived from the base salt and the epoch index. A stream lives
/// until the last session that took it ends. Not thread-safe: the daemon's
/// loop thread is its one user.
class RatelessEpochs {
 public:
  /// `items` is borrowed and must outlive every stream taken. It must not
  /// change while a stream is in use: a new set needs a new epoch.
  RatelessEpochs(const reconcile::ItemSet& items, std::uint64_t salt) noexcept
      : items_(&items), salt_(salt) {}

  /// The stream for the next rateless session.
  [[nodiscard]] std::shared_ptr<reconcile::RatelessStream> take();

 private:
  const reconcile::ItemSet* items_;
  std::uint64_t salt_;
  std::uint64_t epoch_ = 0;
  std::uint32_t taken_ = 0;  ///< sessions of this epoch so far
  std::shared_ptr<reconcile::RatelessStream> current_;
};

class PeerSession {
 public:
  /// `items` is the daemon's set (borrowed; outlives the session). `salt`
  /// keys each Graphene session's short IDs. Rateless streams come from
  /// `epochs`, the daemon's epoch state shared by all its sessions, which
  /// must outlive this one; without it the session keeps an epoch state of
  /// its own, keyed by `salt`. `proto` carries obs/param_cache; its
  /// reconcile_backend is overridden by each hello.
  PeerSession(const reconcile::ItemSet& items, std::uint64_t salt,
              const DaemonLimits& limits, core::ProtocolConfig proto,
              RatelessEpochs* epochs = nullptr);
  ~PeerSession();
  PeerSession(PeerSession&&) noexcept;
  PeerSession& operator=(PeerSession&&) = delete;
  PeerSession(const PeerSession&) = delete;
  PeerSession& operator=(const PeerSession&) = delete;

  /// Feeds stream bytes received at `now_ns`. Replies (including a final
  /// error frame) are appended to `out`. Returns false once the session is
  /// closed — the caller flushes `out` best-effort and closes the transport.
  [[nodiscard]] bool on_bytes(std::uint64_t now_ns, util::ByteView data,
                              std::vector<net::Message>& out);

  /// Peer sent EOF. Clean between sessions, a reset inside one.
  void on_eof();

  /// Applies the idle/session deadlines at `now_ns`. Returns false once the
  /// session is closed (reason kIdleTimeout/kSessionTimeout).
  [[nodiscard]] bool check_deadlines(std::uint64_t now_ns);

  /// Earliest future instant at which check_deadlines() could close this
  /// session — the daemon's epoll-timeout input.
  [[nodiscard]] std::uint64_t next_deadline_ns() const noexcept;

  /// Administrative close (e.g. daemon shutdown): appends a typed error
  /// frame to `out` when the peer is mid-session and marks the session
  /// closed. No-op if already closed.
  void close(CloseReason reason, ErrorCode code, const char* detail,
             std::vector<net::Message>& out);

  [[nodiscard]] bool closed() const noexcept { return reason_ != CloseReason::kOpen; }
  [[nodiscard]] CloseReason reason() const noexcept { return reason_; }
  [[nodiscard]] bool in_session() const noexcept { return serving_; }
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }

 private:
  void handle_message(std::uint64_t now_ns, const net::Message& msg,
                      std::vector<net::Message>& out);
  void handle_hello(std::uint64_t now_ns, const net::Message& msg,
                    std::vector<net::Message>& out);
  void handle_bye(std::uint64_t now_ns, const net::Message& msg,
                  std::vector<net::Message>& out);
  /// Appends `msg`, unless its payload exceeds limits_.max_frame_payload,
  /// which no frame can carry: then the session fails kLimit instead.
  void reply(net::Message msg, std::vector<net::Message>& out);
  void fail(CloseReason reason, ErrorCode code, const std::string& detail,
            std::vector<net::Message>& out);
  void record_session_end(std::uint64_t now_ns, bool ok, std::uint32_t rounds);

  const reconcile::ItemSet* items_;
  std::uint64_t salt_;
  std::unique_ptr<RatelessEpochs> own_epochs_;  ///< null in a daemon
  RatelessEpochs* epochs_;                      ///< own_epochs_ or the daemon's
  DaemonLimits limits_;
  core::ProtocolConfig proto_;
  obs::Registry* obs_;

  net::FrameReader reader_;
  std::unique_ptr<reconcile::HostBackend> backend_;
  bool serving_ = false;
  core::ReconcileBackend backend_kind_ = core::ReconcileBackend::kGraphene;
  CloseReason reason_ = CloseReason::kOpen;

  std::uint64_t last_activity_ns_ = 0;
  std::uint64_t session_start_ns_ = 0;
  std::uint32_t session_messages_ = 0;
  std::uint32_t sessions_total_ = 0;
  SessionStats stats_;
};

}  // namespace graphene::daemon
