#include "daemon/session.hpp"

#include <string>

#include "graphene/errors.hpp"
#include "obs/obs.hpp"
#include "util/hash.hpp"

namespace graphene::daemon {
namespace {

using reconcile::detail::parse_payload;

const char* backend_label(core::ReconcileBackend backend) noexcept {
  return backend == core::ReconcileBackend::kRatelessIblt ? "rateless" : "graphene";
}

/// Domain separator of rateless epoch salts ("rlepoch" in ASCII), so that
/// no epoch salt is derived the way a Graphene session salt is.
constexpr std::uint64_t kEpochSaltDomain = 0x726c65706f6368ULL;

}  // namespace

std::shared_ptr<reconcile::RatelessStream> RatelessEpochs::take() {
  if (!current_) {
    const std::uint64_t epoch_salt =
        util::mix64(util::mix64(salt_ ^ kEpochSaltDomain) + epoch_);
    current_ = std::make_shared<reconcile::RatelessStream>(*items_, epoch_salt);
  }
  std::shared_ptr<reconcile::RatelessStream> stream = current_;
  if (++taken_ == kRatelessEpochSessions) {
    // The sessions still reading this epoch's stream keep it alive; the
    // next hello builds the next epoch's.
    current_.reset();
    taken_ = 0;
    ++epoch_;
  }
  return stream;
}

const char* to_string(CloseReason reason) noexcept {
  switch (reason) {
    case CloseReason::kOpen: return "open";
    case CloseReason::kPeerClosed: return "peer_closed";
    case CloseReason::kPeerReset: return "peer_reset";
    case CloseReason::kMalformed: return "malformed";
    case CloseReason::kProtocolError: return "protocol_error";
    case CloseReason::kLimit: return "limit";
    case CloseReason::kIdleTimeout: return "idle_timeout";
    case CloseReason::kSessionTimeout: return "session_timeout";
    case CloseReason::kShutdown: return "shutdown";
  }
  return "unknown";
}

PeerSession::PeerSession(const reconcile::ItemSet& items, std::uint64_t salt,
                         const DaemonLimits& limits, core::ProtocolConfig proto,
                         RatelessEpochs* epochs)
    : items_(&items),
      salt_(salt),
      own_epochs_(epochs == nullptr ? std::make_unique<RatelessEpochs>(items, salt)
                                    : nullptr),
      epochs_(epochs == nullptr ? own_epochs_.get() : epochs),
      limits_(limits),
      proto_(proto),
      obs_(proto.obs),
      reader_(limits.max_frame_payload) {}

PeerSession::~PeerSession() = default;
PeerSession::PeerSession(PeerSession&&) noexcept = default;

bool PeerSession::on_bytes(std::uint64_t now_ns, util::ByteView data,
                           std::vector<net::Message>& out) {
  if (closed()) return false;
  last_activity_ns_ = now_ns;
  try {
    reader_.absorb(data);
    while (!closed()) {
      std::optional<net::Message> msg = reader_.next();
      if (!msg) break;
      ++stats_.messages_in;
      handle_message(now_ns, *msg, out);
    }
  } catch (const util::DeserializeError& e) {
    fail(CloseReason::kMalformed, ErrorCode::kMalformed, e.what(), out);
  }
  return !closed();
}

void PeerSession::on_eof() {
  if (closed()) return;
  // EOF between sessions with an empty frame buffer is the protocol's clean
  // goodbye; anywhere else the peer abandoned work in flight.
  reason_ = (!serving_ && !reader_.mid_frame()) ? CloseReason::kPeerClosed
                                                : CloseReason::kPeerReset;
}

bool PeerSession::check_deadlines(std::uint64_t now_ns) {
  if (closed()) return false;
  if (last_activity_ns_ == 0) last_activity_ns_ = now_ns;  // first sweep
  if (serving_ && now_ns - session_start_ns_ >= limits_.session_timeout_ns) {
    reason_ = CloseReason::kSessionTimeout;
    return false;
  }
  if (now_ns - last_activity_ns_ >= limits_.idle_timeout_ns) {
    reason_ = CloseReason::kIdleTimeout;
    return false;
  }
  return true;
}

std::uint64_t PeerSession::next_deadline_ns() const noexcept {
  if (closed()) return UINT64_MAX;
  std::uint64_t deadline = UINT64_MAX;
  if (last_activity_ns_ != 0) deadline = last_activity_ns_ + limits_.idle_timeout_ns;
  if (serving_) {
    const std::uint64_t session_end = session_start_ns_ + limits_.session_timeout_ns;
    if (session_end < deadline) deadline = session_end;
  }
  return deadline;
}

void PeerSession::close(CloseReason reason, ErrorCode code, const char* detail,
                        std::vector<net::Message>& out) {
  if (closed()) return;
  if (serving_) {
    ErrorMsg err;
    err.code = code;
    err.detail = detail;
    out.push_back({net::MessageType::kDaemonError, err.serialize()});
    ++stats_.messages_out;
  }
  reason_ = reason;
}

void PeerSession::handle_message(std::uint64_t now_ns, const net::Message& msg,
                                 std::vector<net::Message>& out) {
  switch (msg.type) {
    case net::MessageType::kDaemonHello:
      handle_hello(now_ns, msg, out);
      return;
    case net::MessageType::kDaemonBye:
      handle_bye(now_ns, msg, out);
      return;
    default: break;
  }

  if (!serving_) {
    fail(CloseReason::kProtocolError, ErrorCode::kProtocol,
         std::string("daemon: \"") + std::string(net::command_name(msg.type)) +
             "\" before hello",
         out);
    return;
  }
  if (++session_messages_ > limits_.session_msg_cap) {
    fail(CloseReason::kLimit, ErrorCode::kLimit,
         "daemon: session message cap exceeded", out);
    return;
  }
  try {
    reply(backend_->serve_wire(msg), out);
  } catch (const core::ProtocolError& e) {
    fail(CloseReason::kProtocolError, ErrorCode::kProtocol, e.what(), out);
  } catch (const util::DeserializeError& e) {
    fail(CloseReason::kMalformed, ErrorCode::kMalformed, e.what(), out);
  }
}

void PeerSession::handle_hello(std::uint64_t now_ns, const net::Message& msg,
                               std::vector<net::Message>& out) {
  if (serving_) {
    fail(CloseReason::kProtocolError, ErrorCode::kProtocol,
         "daemon: hello inside an open session", out);
    return;
  }
  const HelloMsg hello = parse_payload<HelloMsg>(msg, "daemon::HelloMsg");
  if (hello.version != kDaemonProtocolVersion) {
    fail(CloseReason::kProtocolError, ErrorCode::kUnsupported,
         "daemon: unsupported protocol version " + std::to_string(hello.version), out);
    return;
  }
  if (hello.backend > 1) {
    fail(CloseReason::kProtocolError, ErrorCode::kUnsupported,
         "daemon: unsupported backend " + std::to_string(hello.backend), out);
    return;
  }
  core::ProtocolConfig cfg = proto_;
  cfg.reconcile_backend = hello.backend == 1 ? core::ReconcileBackend::kRatelessIblt
                                             : core::ReconcileBackend::kGraphene;
  try {
    if (cfg.reconcile_backend == core::ReconcileBackend::kRatelessIblt) {
      // The epoch's shared stream: its symbols depend on the set and the
      // salt only, and a peer cannot place items in the set to grind them.
      backend_ = std::make_unique<reconcile::RatelessHostBackend>(epochs_->take(), cfg);
    } else {
      // Fresh short-ID keying per session: a peer that grinds collisions
      // against one offer learns nothing about the next.
      const std::uint64_t session_salt =
          util::mix64(salt_ ^ (0x9e3779b97f4a7c15ULL * (sessions_total_ + 1)));
      backend_ = reconcile::make_host_backend(*items_, session_salt, cfg);
    }
    reconcile::WireMsg opening = backend_->open(hello.item_count);
    serving_ = true;
    backend_kind_ = cfg.reconcile_backend;
    session_start_ns_ = now_ns;
    session_messages_ = 0;
    reply(std::move(opening), out);
  } catch (const core::ProtocolError& e) {
    backend_.reset();
    fail(CloseReason::kProtocolError, ErrorCode::kProtocol, e.what(), out);
  }
}

void PeerSession::handle_bye(std::uint64_t now_ns, const net::Message& msg,
                             std::vector<net::Message>& out) {
  if (!serving_) {
    fail(CloseReason::kProtocolError, ErrorCode::kProtocol,
         "daemon: bye outside a session", out);
    return;
  }
  const ByeMsg bye = parse_payload<ByeMsg>(msg, "daemon::ByeMsg");
  record_session_end(now_ns, bye.ok == 1, bye.rounds);
  serving_ = false;
  backend_.reset();
  ++sessions_total_;
  if (limits_.conn_session_cap != 0 && sessions_total_ >= limits_.conn_session_cap) {
    // Rotation, not misbehavior — but the reason is still typed so the soak
    // accounting can tell rotations from faults.
    reason_ = CloseReason::kLimit;
  }
}

void PeerSession::reply(net::Message msg, std::vector<net::Message>& out) {
  if (msg.payload.size() > limits_.max_frame_payload) {
    fail(CloseReason::kLimit, ErrorCode::kLimit,
         "daemon: " + std::string(net::command_name(msg.type)) + " reply of " +
             std::to_string(msg.payload.size()) + " bytes exceeds the frame cap " +
             std::to_string(limits_.max_frame_payload),
         out);
    return;
  }
  out.push_back(std::move(msg));
  ++stats_.messages_out;
}

void PeerSession::fail(CloseReason reason, ErrorCode code, const std::string& detail,
                       std::vector<net::Message>& out) {
  if (closed()) return;
  ErrorMsg err;
  err.code = code;
  err.detail = detail;
  out.push_back({net::MessageType::kDaemonError, err.serialize()});
  ++stats_.messages_out;
  reason_ = reason;
  if (obs::Registry* reg = obs_) {
    reg->counter("daemon_session_errors_total", {{"code", to_string(code)}}).inc();
  }
}

void PeerSession::record_session_end(std::uint64_t now_ns, bool ok,
                                     std::uint32_t rounds) {
  if (ok) {
    ++stats_.sessions_ok;
  } else {
    ++stats_.sessions_failed;
  }
  if (obs::Registry* reg = obs_) {
    const char* backend = backend_label(backend_kind_);
    const obs::Labels labels = {{"backend", backend}, {"ok", ok ? "1" : "0"}};
    reg->histogram("daemon_session_ns", labels).observe(now_ns - session_start_ns_);
    reg->counter("daemon_sessions_total", labels).inc();
    reg->histogram("daemon_session_rounds", {{"backend", backend}}).observe(rounds);
  }
}

}  // namespace graphene::daemon
