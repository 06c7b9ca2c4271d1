// Decode-failure forensics: every non-success termination — a forced
// undersized-IBLT decode failure, a ProtocolError, or a FaultyChannel abort —
// must leave behind a self-contained JSON capture that replay_capture()
// re-executes to the identical outcome, byte-comparing every regenerated
// message. The sweep at the bottom drives adversarial link profiles and
// checks the property on every failed trial, not just a hand-picked one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "graphene/forensics.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "obs/obs.hpp"
#include "testkit/faulty_channel.hpp"
#include "testkit/gen.hpp"
#include "util/bytes.hpp"
#include "util/wire_limits.hpp"

namespace graphene::core {
namespace {

namespace fs = std::filesystem;

// Raise the per-process dump cap before anything caches it (the limit is
// read once): the fault sweep below legitimately dumps many captures.
const bool kLimitRaised = [] {
  ::setenv("GRAPHENE_CAPTURE_LIMIT", "1000000", /*overwrite=*/1);
  return true;
}();

/// Points GRAPHENE_CAPTURE_DIR at a fresh temp directory for one test and
/// restores the previous value (CI sets its own) on the way out.
class ScopedCaptureDir {
 public:
  ScopedCaptureDir() {
    if (const char* prev = std::getenv("GRAPHENE_CAPTURE_DIR")) previous_ = prev;
    std::string tmpl = ::testing::TempDir() + "graphene_forensics_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr) << tmpl;
    dir_ = made != nullptr ? made : tmpl;
    ::setenv("GRAPHENE_CAPTURE_DIR", dir_.c_str(), /*overwrite=*/1);
  }

  ScopedCaptureDir(const ScopedCaptureDir&) = delete;
  ScopedCaptureDir& operator=(const ScopedCaptureDir&) = delete;

  ~ScopedCaptureDir() {
    if (previous_.has_value()) {
      ::setenv("GRAPHENE_CAPTURE_DIR", previous_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv("GRAPHENE_CAPTURE_DIR");
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] const std::string& path() const noexcept { return dir_; }

  /// Files currently in the directory (non-consuming).
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const fs::directory_entry& entry : fs::directory_iterator(dir_)) ++n;
    return n;
  }

  /// Capture files that appeared since the last call, lexicographic order.
  std::vector<fs::path> drain_new() {
    std::vector<fs::path> fresh;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
      if (seen_.insert(entry.path().string()).second) fresh.push_back(entry.path());
    }
    std::sort(fresh.begin(), fresh.end());
    return fresh;
  }

 private:
  std::string dir_;
  std::optional<std::string> previous_;
  std::set<std::string> seen_;
};

ForensicCapture load_capture(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << file;
  std::ostringstream text;
  text << in.rdbuf();
  ForensicCapture cap = ForensicCapture::from_json(text.str());
  // Self-contained: the capture survives its own JSON round trip exactly.
  EXPECT_EQ(cap.to_json(), ForensicCapture::from_json(cap.to_json()).to_json()) << file;
  return cap;
}

TEST(ForensicsEnv, CaptureDisabledWithoutDir) {
  std::optional<std::string> previous;
  if (const char* prev = std::getenv("GRAPHENE_CAPTURE_DIR")) previous = prev;
  ::unsetenv("GRAPHENE_CAPTURE_DIR");
  EXPECT_FALSE(capture_enabled());
  chain::Mempool pool;
  const ForensicCapture cap =
      make_capture("decode_failure", "p1_peel", pool, ProtocolConfig{}, 7);
  EXPECT_FALSE(maybe_dump_capture(cap).has_value());
  if (previous.has_value()) {
    ::setenv("GRAPHENE_CAPTURE_DIR", previous->c_str(), /*overwrite=*/1);
  }
}

TEST(ForensicsEnv, CaptureRoundTripsWithoutTelemetry) {
  // No registry attached: the capture still carries the session environment
  // (mempool, config scalars, salt) even though the event log is empty.
  util::Rng rng(11);
  chain::ScenarioSpec spec;
  spec.block_txns = 20;
  spec.extra_txns = 10;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  ProtocolConfig cfg;
  cfg.enable_pingpong = false;
  ForensicCapture cap =
      make_capture("protocol_error", "build_request", s.receiver_mempool, cfg, 99);
  cap.note = "unit";
  attach_block(cap, s.block, s.m);
  const ForensicCapture back = ForensicCapture::from_json(cap.to_json());
  EXPECT_EQ(back.kind, "protocol_error");
  EXPECT_EQ(back.stage, "build_request");
  EXPECT_EQ(back.note, "unit");
  EXPECT_EQ(back.salt, 99u);
  EXPECT_EQ(back.claimed_m, s.m);
  EXPECT_FALSE(back.enable_pingpong);
  EXPECT_TRUE(back.has_block);
  EXPECT_EQ(back.mempool.size(), s.receiver_mempool.size());
  EXPECT_EQ(back.block_txns.size(), s.block.tx_count());
  EXPECT_EQ(back.round_trip_bytes, cfg.round_trip_bytes);
  EXPECT_EQ(back.config().round_trip_bytes, cfg.round_trip_bytes);

  // A capture written before the config recorded round_trip_bytes ran under
  // the byte objective, and loads as 0.
  std::string legacy = cap.to_json();
  const std::string rtb = ",\"round_trip_bytes\":125000";
  const std::size_t rtb_at = legacy.find(rtb);
  ASSERT_NE(rtb_at, std::string::npos);
  legacy.erase(rtb_at, rtb.size());
  EXPECT_EQ(ForensicCapture::from_json(legacy).round_trip_bytes, 0u);

  // A count the writer could not have produced is refused at load, before
  // it reaches a conversion or the optimizer.
  for (const char* bad : {"-1", "0.5", "1e300", "9007199254740994"}) {
    std::string json = cap.to_json();
    json.replace(rtb_at, rtb.size(), std::string(",\"round_trip_bytes\":") + bad);
    EXPECT_THROW((void)ForensicCapture::from_json(json), obs::json::ParseError) << bad;
  }

  // The v1 config keeps its bloom_strategy key, pinned to 0 (split digest):
  // a capture naming any other layout cannot be replayed and is refused.
  std::string json = cap.to_json();
  const std::string key = "\"bloom_strategy\":0";
  const std::size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, key.size(), "\"bloom_strategy\":2");
  EXPECT_THROW((void)ForensicCapture::from_json(json), obs::json::ParseError);
}

TEST(Forensics, ForcedUndersizedIbltFailureReplaysExactly) {
  ScopedCaptureDir capture_dir;
  util::Rng rng(0x5eed);
  chain::ScenarioSpec spec;
  spec.block_txns = 120;
  spec.extra_txns = 200;
  spec.block_fraction_in_mempool = 0.5;  // 60 block txns genuinely missing
  const chain::Scenario s = chain::make_scenario(spec, rng);

  obs::Registry reg;
  ProtocolConfig cfg;
  cfg.obs = &reg;
  cfg.enable_pingpong = false;  // the undersized J must fail, not be rescued
  const std::uint64_t salt = 0x1badb002;
  Sender sender(s.block, salt);  // plain config: receiver-only capture
  ReceiveSession session(s.receiver_mempool, cfg);

  ReceiveOutcome out = session.receive_block(sender.encode(s.m).msg);
  ASSERT_EQ(out.status, ReceiveStatus::kNeedsProtocol2);

  // Adversarial downgrade: the receiver computed honest sizing, but the
  // request the sender answers asks for a ~2-item IBLT J while the
  // match-everything filter R hides all 60 missing transactions from the
  // direct-send path. The symmetric difference (>= 60 items) exceeds J's
  // cell count, so the peel cannot terminate successfully.
  GrapheneRequestMsg req = session.build_request();
  req.b = 1;
  req.y_star = 1;
  req.fpr_r = 1.0;
  req.filter = bloom::BloomFilter();  // degenerate: everything "passes R"
  out = session.complete(sender.serve(req));
  ASSERT_EQ(out.status, ReceiveStatus::kFailed);

  const std::vector<fs::path> files = capture_dir.drain_new();
  ASSERT_EQ(files.size(), 1u) << "exactly one decode_failure capture expected";
  EXPECT_EQ(reg.counter("graphene_captures_total", {{"kind", "decode_failure"}}).value(), 1u);
  const ForensicCapture cap = load_capture(files[0]);
  EXPECT_EQ(cap.kind, "decode_failure");
  EXPECT_EQ(cap.stage, "p2_peel");
  EXPECT_EQ(cap.salt, salt);
  EXPECT_FALSE(cap.enable_pingpong);
  EXPECT_TRUE(cap.has_error);
  EXPECT_EQ(cap.mempool.size(), s.receiver_mempool.size());
  ASSERT_FALSE(cap.events.empty());

  const ReplayReport rep = replay_capture(cap);
  EXPECT_TRUE(rep.ran);
  std::string notes;
  for (const std::string& n : rep.notes) notes += n + "; ";
  EXPECT_TRUE(rep.outcome_match) << notes;
  EXPECT_TRUE(rep.bytes_match) << notes;
  EXPECT_TRUE(rep.ok()) << notes;
  EXPECT_EQ(rep.recorded_outcome, "p2:failed");
  EXPECT_EQ(rep.replayed_outcome, "p2:failed");
}

TEST(Forensics, ProtocolErrorIsCountedTracedAndCaptured) {
  // A receiver driven out of order raises ProtocolError. With telemetry
  // attached the error must also leave an `error` span, a per-stage
  // counter, a flight event and one protocol_error capture.
  ScopedCaptureDir capture_dir;
  chain::Mempool pool;
  obs::Registry reg;
  ProtocolConfig cfg;
  cfg.obs = &reg;
  ReceiveSession session(pool, cfg);
  EXPECT_THROW((void)session.build_request(), ProtocolError);

  obs::TraceSpan span;
  ASSERT_TRUE(reg.trace().find("error", &span));
  EXPECT_DOUBLE_EQ(span.attr("have_block_msg"), 0.0);
  EXPECT_EQ(
      reg.counter("graphene_protocol_errors_total", {{"stage", "build_request"}}).value(),
      1u);
  const std::vector<obs::FlightEvent> events = reg.recorder().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::FlightEventKind::kError);
  EXPECT_EQ(events[0].label, "build_request");

  const std::vector<fs::path> files = capture_dir.drain_new();
  ASSERT_EQ(files.size(), 1u);
  const ForensicCapture cap = load_capture(files[0]);
  EXPECT_EQ(cap.kind, "protocol_error");
  EXPECT_EQ(cap.stage, "build_request");
  EXPECT_TRUE(cap.has_error);
  EXPECT_FALSE(cap.error.have_block_msg);
}

TEST(Forensics, SharedRegistryCaptureHoldsOnlyItsOwnSession) {
  // Two sessions, one after the other, on one registry. The first relay
  // decodes and leaves its events in the shared flight recorder; the second
  // session is driven out of order. Its protocol_error capture must replay
  // to the same error, which it cannot if it carries the first relay's
  // events too.
  ScopedCaptureDir capture_dir;
  util::Rng rng(0x2e55);
  chain::ScenarioSpec spec;
  spec.block_txns = 120;
  spec.extra_txns = 200;
  spec.block_fraction_in_mempool = 0.9;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  obs::Registry reg;
  ProtocolConfig cfg;
  cfg.obs = &reg;
  {
    Sender sender(s.block, /*salt=*/3);
    ReceiveSession first(s.receiver_mempool, cfg);
    ASSERT_EQ(relay_block(sender, first, s.m).outcome.status, ReceiveStatus::kDecoded);
  }
  const std::uint64_t first_events = reg.recorder().total_recorded();
  ASSERT_GT(first_events, 0u);
  ASSERT_TRUE(capture_dir.drain_new().empty());

  ReceiveSession second(s.receiver_mempool, cfg);
  EXPECT_THROW((void)second.build_request(), ProtocolError);
  const std::vector<fs::path> files = capture_dir.drain_new();
  ASSERT_EQ(files.size(), 1u);
  const ForensicCapture cap = load_capture(files[0]);
  EXPECT_EQ(cap.kind, "protocol_error");
  ASSERT_EQ(cap.events.size(), 1u);
  EXPECT_EQ(cap.events[0].seq, first_events);
  EXPECT_EQ(cap.events[0].kind, obs::FlightEventKind::kError);

  const ReplayReport rep = replay_capture(cap);
  std::string notes;
  for (const std::string& n : rep.notes) notes += n + "; ";
  EXPECT_TRUE(rep.ok()) << notes;
  EXPECT_EQ(rep.recorded_outcome, "error:build_request");
  EXPECT_EQ(rep.replayed_outcome, "error:build_request");
}

TEST(Forensics, SenderRejectionIsRecorded) {
  // serve() re-validates an in-memory request's sizing; the rejection lands
  // in the flight log with the offending parameters before it throws.
  util::Rng rng(42);
  chain::ScenarioSpec spec;
  spec.block_txns = 50;
  spec.extra_txns = 50;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  obs::Registry reg;
  ProtocolConfig cfg;
  cfg.obs = &reg;
  const Sender sender(s.block, /*salt=*/1, cfg);

  GrapheneRequestMsg req;
  req.z = 100;
  req.fpr_r = 0.1;
  req.filter = bloom::BloomFilter(100, 0.1, 2);
  req.b = 1;
  req.y_star = util::wire::kMaxSizingParam + 1;
  EXPECT_THROW((void)sender.serve(req), ProtocolError);

  const std::vector<obs::FlightEvent> events = reg.recorder().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, obs::FlightEventKind::kError);
  EXPECT_EQ(events[0].label, "p2_serve");
  EXPECT_DOUBLE_EQ(events[0].attr("n"), 50.0);
  EXPECT_DOUBLE_EQ(events[0].attr("y_star"),
                   static_cast<double>(util::wire::kMaxSizingParam + 1));
}

TEST(Forensics, ChannelAbortCaptureReproducesDeserializeFailure) {
  ScopedCaptureDir capture_dir;
  util::Rng rng(0xabc);
  chain::ScenarioSpec spec;
  spec.block_txns = 40;
  spec.extra_txns = 30;
  const chain::Scenario s = chain::make_scenario(spec, rng);

  obs::Registry reg;
  ProtocolConfig cfg;
  cfg.obs = &reg;
  const std::uint64_t salt = 0xcafe;
  Sender sender(s.block, salt);

  // The link truncated the only grblk frame; the receiver never got a
  // parseable message. The driver records what the far side saw plus the
  // channel error, then snapshots the session environment.
  util::Bytes frame = sender.encode(s.m).msg.serialize();
  ASSERT_GT(frame.size(), 8u);
  frame.resize(frame.size() / 2);
  {
    util::ByteReader reader(frame);
    EXPECT_THROW((void)GrapheneBlockMsg::deserialize(reader), util::DeserializeError);
  }
  {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgReceived;
    e.label = "grblk";
    e.wire = frame;
    reg.recorder().record(std::move(e));
    obs::FlightEvent err;
    err.kind = obs::FlightEventKind::kError;
    err.label = "channel";
    reg.recorder().record(std::move(err));
  }
  const ForensicCapture built =
      make_capture("channel_abort", "channel", s.receiver_mempool, cfg, salt);
  const std::optional<std::string> path = maybe_dump_capture(built);
  ASSERT_TRUE(path.has_value());

  const ForensicCapture cap = load_capture(fs::path(*path));
  EXPECT_EQ(cap.kind, "channel_abort");
  const ReplayReport rep = replay_capture(cap);
  EXPECT_TRUE(rep.ran);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.recorded_outcome, "error:channel");
  EXPECT_EQ(rep.replayed_outcome, "error:channel");
}

// ---------------------------------------------------------------------------
// Adversarial sweep: every non-success termination leaves a replayable capture.
// ---------------------------------------------------------------------------

enum class End : std::uint8_t {
  kDecodedCorrect,
  kFailedOutcome,   ///< a kFailed decode — engine dumps decode_failure
  kProtocolError,   ///< typed error — engine dumps on the receiver side
  kAborted,         ///< link never delivered a parseable frame — driver dumps
  kWrongBlock,      ///< must never happen (covered by test_fault_injection)
};

constexpr int kMaxAttemptsPerStep = 3;

const char* receive_label(net::MessageType type) {
  switch (type) {
    case net::MessageType::kGrapheneBlock:
      return "grblk";
    case net::MessageType::kGrapheneResponse:
      return "grresp";
    case net::MessageType::kBlockTxn:
      return "blocktxn";
    default:
      return nullptr;
  }
}

/// The bounded-retry peer loop from test_fault_injection, extended to leave a
/// replayable trace on abort: when the last sender->receiver frame failed to
/// parse, that frame plus a "channel" error event go into the flight log, so
/// replay re-raises the identical DeserializeError from the identical bytes.
template <typename Msg>
std::optional<Msg> deliver(testkit::FaultyChannel& ch, net::Direction dir,
                           net::MessageType type, const Msg& msg, obs::Registry& reg) {
  const util::Bytes encoded = msg.serialize();
  util::Bytes last_corrupt;
  for (int attempt = 0; attempt < kMaxAttemptsPerStep; ++attempt) {
    std::vector<util::Bytes> buffers = ch.transmit(dir, type, encoded);
    if (attempt + 1 == kMaxAttemptsPerStep) {
      for (util::Bytes& held : ch.flush(dir)) buffers.push_back(std::move(held));
    }
    for (util::Bytes& b : buffers) {
      try {
        util::ByteReader reader(b);
        return Msg::deserialize(reader);
      } catch (const util::DeserializeError&) {
        if (dir == net::Direction::kSenderToReceiver) last_corrupt = std::move(b);
      }
    }
  }
  if (obs::FlightRecorder* fr = obs::flight(&reg)) {
    const char* label = receive_label(type);
    if (label != nullptr && !last_corrupt.empty()) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kMsgReceived;
      e.label = label;
      e.wire = std::move(last_corrupt);
      fr->record(std::move(e));
      obs::FlightEvent err;
      err.kind = obs::FlightEventKind::kError;
      err.label = "channel";
      fr->record(std::move(err));
    } else {
      obs::FlightEvent note;
      note.kind = obs::FlightEventKind::kNote;
      note.label = "link_abort";
      note.attrs = {{"dir", dir == net::Direction::kSenderToReceiver ? 0.0 : 1.0}};
      fr->record(std::move(note));
    }
  }
  return std::nullopt;
}

End run_with_forensics(const testkit::GenCase& c, const testkit::FaultSpec& faults,
                       const ScopedCaptureDir& dir) {
  const std::size_t baseline = dir.count();
  const chain::Scenario s = testkit::build_scenario(c);
  obs::Registry reg;
  ProtocolConfig cfg;
  cfg.obs = &reg;
  // The byte objective: its repair rounds give the faulty link more frames
  // to break.
  cfg.round_trip_bytes = 0;
  // The sender runs without telemetry so the capture is strictly the
  // receiver's view — receiver-only replay then has no sender-side events
  // whose regeneration could depend on what the faulty link delivered.
  Sender sender(s.block, c.salt);
  ReceiveSession session(s.receiver_mempool, cfg);
  testkit::FaultyChannel ch(faults);
  ch.attach_obs(&reg);

  // Engine dumps cover receiver-side kFailed outcomes and receiver-side
  // raises; everything else (aborts, sender-side raises like p2_serve
  // rejecting a bit-flipped request, a terminal still-needs-repair end) is
  // the driver's responsibility — it is the one party that can see the
  // receiver's mempool and the shared flight log.
  const auto ensure_capture = [&](std::string kind, std::string stage) {
    if (dir.count() == baseline) {
      const ForensicCapture cap = make_capture(std::move(kind), std::move(stage),
                                               s.receiver_mempool, cfg, c.salt);
      (void)maybe_dump_capture(cap);
    }
  };
  const auto abort_capture = [&] {
    ensure_capture("channel_abort", "channel");
    return End::kAborted;
  };

  try {
    const auto block = deliver(ch, net::Direction::kSenderToReceiver,
                               net::MessageType::kGrapheneBlock,
                               sender.encode(s.m).msg, reg);
    if (!block) return abort_capture();
    ReceiveOutcome out = session.receive_block(*block);

    if (out.status == ReceiveStatus::kNeedsProtocol2) {
      const auto request = deliver(ch, net::Direction::kReceiverToSender,
                                   net::MessageType::kGrapheneRequest,
                                   session.build_request(), reg);
      if (!request) return abort_capture();
      const auto response = deliver(ch, net::Direction::kSenderToReceiver,
                                    net::MessageType::kGrapheneResponse,
                                    sender.serve(*request), reg);
      if (!response) return abort_capture();
      out = session.complete(*response);
    }

    if (out.status == ReceiveStatus::kNeedsRepair) {
      const auto repair_req = deliver(ch, net::Direction::kReceiverToSender,
                                      net::MessageType::kGetBlockTxn,
                                      session.build_repair(), reg);
      if (!repair_req) return abort_capture();
      const auto repair = deliver(ch, net::Direction::kSenderToReceiver,
                                  net::MessageType::kBlockTxn,
                                  sender.serve_repair(*repair_req), reg);
      if (!repair) return abort_capture();
      out = session.complete_repair(*repair);
    }

    if (out.status != ReceiveStatus::kDecoded) {
      // kFailed dumped inside the engine; a terminal needs_protocol2 /
      // needs_repair (peer gave up) did not — cover it here.
      ensure_capture("decode_failure", to_string(out.status));
      return End::kFailedOutcome;
    }
    if (!out.merkle_ok || out.block_ids != s.block.tx_ids()) return End::kWrongBlock;
    return End::kDecodedCorrect;
  } catch (const ProtocolError& pe) {
    ensure_capture("protocol_error", pe.stage());
    return End::kProtocolError;
  } catch (const util::DeserializeError&) {
    ensure_capture("protocol_error", "channel");
    return End::kProtocolError;
  }
}

TEST(Forensics, EveryFaultInducedFailureYieldsReplayableCapture) {
  ScopedCaptureDir capture_dir;
  (void)capture_dir.drain_new();

  struct Profile {
    const char* name;
    testkit::FaultSpec spec;
  };
  std::vector<Profile> profiles;
  {
    testkit::FaultSpec f;
    f.bitflip = 0.3;
    profiles.push_back({"bitflip", f});
  }
  {
    testkit::FaultSpec f;
    f.truncate = 0.3;
    profiles.push_back({"truncate", f});
  }
  {
    testkit::FaultSpec f;
    f.drop = 0.1;
    f.duplicate = 0.15;
    f.reorder = 0.15;
    f.truncate = 0.15;
    f.bitflip = 0.15;
    profiles.push_back({"everything", f});
  }

  testkit::ScenarioDims dims;
  dims.min_block_txns = 1;
  dims.max_block_txns = 200;
  dims.max_extra_multiple = 2.0;

  std::uint64_t failures = 0;
  std::uint64_t replayed = 0;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    util::Rng rng(0xf0c5 + p);
    for (std::uint64_t i = 0; i < 25; ++i) {
      const testkit::GenCase c = testkit::gen_case(rng, dims);
      testkit::FaultSpec f = profiles[p].spec;
      f.seed = rng.next();
      const End end = run_with_forensics(c, f, capture_dir);
      const std::vector<fs::path> fresh = capture_dir.drain_new();
      const std::string where = std::string(profiles[p].name) + " trial " +
                                std::to_string(i) + " (" + testkit::describe_case(c) +
                                ", fault seed " + std::to_string(f.seed) + ")";

      ASSERT_NE(end, End::kWrongBlock) << where;
      if (end == End::kDecodedCorrect) {
        EXPECT_TRUE(fresh.empty()) << where << ": capture dumped on success";
        continue;
      }

      ++failures;
      ASSERT_FALSE(fresh.empty()) << where << ": failure left no capture";
      for (const fs::path& file : fresh) {
        const ForensicCapture cap = load_capture(file);
        EXPECT_FALSE(cap.kind.empty()) << where;
        const ReplayReport rep = replay_capture(cap);
        std::string notes;
        for (const std::string& n : rep.notes) notes += n + "; ";
        if (rep.ran) {
          ++replayed;
          EXPECT_TRUE(rep.outcome_match)
              << where << " " << file << ": " << rep.recorded_outcome << " vs "
              << rep.replayed_outcome << "; " << notes;
          EXPECT_TRUE(rep.bytes_match) << where << " " << file << ": " << notes;
          EXPECT_EQ(rep.recorded_outcome, rep.replayed_outcome) << where << " " << file;
        } else {
          // Nothing ever crossed the link (pure-drop abort before the first
          // parseable frame): the capture is still parseable and carries the
          // session environment, there is just no traffic to re-execute.
          EXPECT_EQ(rep.replayed_outcome, "nothing-replayed") << where << " " << file;
        }
      }
    }
  }
  // The property must not be vacuous: the profiles above have to break a
  // healthy share of trials, and most failures must be actively replayable.
  EXPECT_GT(failures, 10u);
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace graphene::core
