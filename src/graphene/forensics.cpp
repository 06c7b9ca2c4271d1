#include "graphene/forensics.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "graphene/messages.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "obs/obs.hpp"
#include "util/base64.hpp"
#include "util/hex.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::core {

namespace {

/// Compact transaction-set codec for the mempool/block snapshots: varint
/// count, then 32-byte id + u32 size + u64 fee per transaction (44 bytes).
util::Bytes encode_txns(const std::vector<chain::Transaction>& txns) {
  util::ByteWriter w;
  util::write_varint(w, txns.size());
  for (const chain::Transaction& tx : txns) {
    w.raw(util::ByteView(tx.id.data(), tx.id.size()));
    w.u32(tx.size_bytes);
    w.u64(tx.fee_per_kb);
  }
  return w.take();
}

std::vector<chain::Transaction> decode_txns(util::ByteView data, const char* field) {
  constexpr std::size_t kTxBytes = 32 + 4 + 8;
  util::ByteReader reader(data);
  const std::uint64_t count =
      util::read_varint_bounded(reader, util::wire::kMaxWireCollection, field);
  if (count * kTxBytes > reader.remaining()) {
    throw util::DeserializeError(std::string(field) + ": snapshot shorter than its count");
  }
  std::vector<chain::Transaction> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    chain::Transaction tx;
    reader.raw_into(tx.id.data(), tx.id.size());
    tx.size_bytes = reader.u32();
    // A capture is replayed through the full protocol engines, where claimed
    // sizes pad re-serialized blocks — cap them like any other wire input.
    if (tx.size_bytes > util::wire::kMaxTxWireSize) {
      throw util::DeserializeError(std::string(field) +
                                   ": tx claimed size exceeds wire limit");
    }
    tx.fee_per_kb = reader.u64();
    out.push_back(tx);
  }
  return out;
}

/// 16-hex-digit big-endian encoding: JSON numbers are doubles and cannot
/// carry a full 64-bit salt, so it travels as a string.
std::string u64_hex(std::uint64_t v) {
  std::array<std::uint8_t, 8> be{};
  for (std::size_t i = 0; i < 8; ++i) {
    be[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  }
  return util::to_hex(util::ByteView(be.data(), be.size()));
}

std::uint64_t hex_u64(const std::string& hex) {
  const util::Bytes be = util::from_hex(hex);
  if (be.size() != 8) throw util::DeserializeError("salt_hex: expected 16 hex digits");
  std::uint64_t v = 0;
  for (const std::uint8_t b : be) v = (v << 8) | b;
  return v;
}

/// A count stored as a JSON number. A double holds every integer up to 2^53
/// exactly; a negative, fractional, non-finite or larger value was not
/// written by to_json, and converting it would be undefined.
std::uint64_t u64_field(const obs::json::Value& obj, const char* key) {
  const double v = obj.at(key).number;
  if (!(v >= 0.0 && v <= 0x1p53 && v == std::floor(v))) {
    throw obs::json::ParseError(std::string("capture: ") + key +
                                " must be an integer in [0, 2^53]");
  }
  return static_cast<std::uint64_t>(v);
}

const char* status_code_label(int code) {
  switch (code) {
    case 0:
      return "decoded";
    case 1:
      return "needs_protocol2";
    case 2:
      return "needs_repair";
    case 3:
      return "failed";
    default:
      return "unknown";
  }
}

}  // namespace

ProtocolConfig ForensicCapture::config() const {
  ProtocolConfig cfg;
  cfg.beta = beta;
  cfg.fail_denom = fail_denom;
  cfg.keyed_short_ids = keyed_short_ids;
  cfg.near_equal_fpr = near_equal_fpr;
  cfg.enable_pingpong = enable_pingpong;
  cfg.round_trip_bytes = round_trip_bytes;
  return cfg;
}

std::string ForensicCapture::to_json() const {
  using obs::json::escape_to;
  using obs::json::number_to;
  std::string o = "{\"schema\":\"";
  o += kSchema;
  o += "\",\"kind\":\"";
  escape_to(o, kind);
  o += "\",\"stage\":\"";
  escape_to(o, stage);
  o += "\",\"note\":\"";
  escape_to(o, note);
  o += "\",\"salt_hex\":\"";
  o += u64_hex(salt);
  o += "\",\"claimed_m\":";
  number_to(o, static_cast<double>(claimed_m));
  o += ",\"config\":{\"beta\":";
  number_to(o, beta);
  o += ",\"fail_denom\":";
  number_to(o, fail_denom);
  o += ",\"keyed_short_ids\":";
  o += keyed_short_ids ? "true" : "false";
  o += ",\"near_equal_fpr\":";
  number_to(o, near_equal_fpr);
  o += ",\"enable_pingpong\":";
  o += enable_pingpong ? "true" : "false";
  o += ",\"round_trip_bytes\":";
  number_to(o, static_cast<double>(round_trip_bytes));
  // The engines build split-digest filters only; the key stays for v1
  // readers.
  o += ",\"bloom_strategy\":0},\"mempool_b64\":\"";
  o += util::base64_encode(encode_txns(mempool));
  o += '"';
  if (has_block) {
    o += ",\"block\":{\"header_b64\":\"";
    o += util::base64_encode(block_header.serialize());
    o += "\",\"txns_b64\":\"";
    o += util::base64_encode(encode_txns(block_txns));
    o += "\"}";
  }
  if (has_error) {
    o += ",\"error\":{\"have_block_msg\":";
    o += error.have_block_msg ? "true" : "false";
    o += ",\"n\":";
    number_to(o, static_cast<double>(error.n));
    o += ",\"m\":";
    number_to(o, static_cast<double>(error.m));
    o += ",\"z\":";
    number_to(o, static_cast<double>(error.z));
    o += ",\"x_star\":";
    number_to(o, static_cast<double>(error.x_star));
    o += ",\"y_star\":";
    number_to(o, static_cast<double>(error.y_star));
    o += ",\"b\":";
    number_to(o, static_cast<double>(error.b));
    o += '}';
  }
  o += ",\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) o += ',';
    o += events[i].to_json();
  }
  o += "]}";
  return o;
}

ForensicCapture ForensicCapture::from_json(std::string_view text) {
  const obs::json::Value doc = obs::json::parse(text);
  if (!doc.is_object()) throw obs::json::ParseError("capture: expected object");
  if (doc.at("schema").string != kSchema) {
    throw obs::json::ParseError("capture: unsupported schema \"" +
                                doc.at("schema").string + "\"");
  }
  ForensicCapture cap;
  cap.kind = doc.at("kind").string;
  cap.stage = doc.at("stage").string;
  cap.note = doc.at("note").string;
  cap.salt = hex_u64(doc.at("salt_hex").string);
  cap.claimed_m = u64_field(doc, "claimed_m");
  const obs::json::Value& cfg = doc.at("config");
  cap.beta = cfg.at("beta").number;
  cap.fail_denom = static_cast<std::uint32_t>(cfg.at("fail_denom").number);
  cap.keyed_short_ids = cfg.at("keyed_short_ids").boolean;
  cap.near_equal_fpr = cfg.at("near_equal_fpr").number;
  cap.enable_pingpong = cfg.at("enable_pingpong").boolean;
  cap.round_trip_bytes =
      cfg.contains("round_trip_bytes") ? u64_field(cfg, "round_trip_bytes") : 0;
  if (cfg.at("bloom_strategy").number != 0.0) {
    throw obs::json::ParseError("capture: bloom_strategy must be 0 (split digest)");
  }
  cap.mempool =
      decode_txns(util::base64_decode(doc.at("mempool_b64").string), "mempool_b64");
  if (doc.contains("block")) {
    const obs::json::Value& blk = doc.at("block");
    const util::Bytes header_bytes = util::base64_decode(blk.at("header_b64").string);
    util::ByteReader reader(header_bytes);
    cap.block_header = chain::BlockHeader::deserialize(reader);
    cap.block_txns =
        decode_txns(util::base64_decode(blk.at("txns_b64").string), "block.txns_b64");
    cap.has_block = true;
  }
  if (doc.contains("error")) {
    const obs::json::Value& err = doc.at("error");
    cap.error.have_block_msg = err.at("have_block_msg").boolean;
    cap.error.n = u64_field(err, "n");
    cap.error.m = u64_field(err, "m");
    cap.error.z = u64_field(err, "z");
    cap.error.x_star = u64_field(err, "x_star");
    cap.error.y_star = u64_field(err, "y_star");
    cap.error.b = u64_field(err, "b");
    cap.has_error = true;
  }
  const obs::json::Value& events = doc.at("events");
  if (!events.is_array()) throw obs::json::ParseError("capture: events must be an array");
  cap.events.reserve(events.array.size());
  for (const obs::json::Value& e : events.array) {
    cap.events.push_back(obs::FlightEvent::from_json(e));
  }
  return cap;
}

ForensicCapture make_capture(std::string kind, std::string stage,
                             const chain::Mempool& mempool, const ProtocolConfig& cfg,
                             std::uint64_t salt, std::uint64_t first_seq) {
  ForensicCapture cap;
  cap.kind = std::move(kind);
  cap.stage = std::move(stage);
  cap.salt = salt;
  cap.beta = cfg.beta;
  cap.fail_denom = cfg.fail_denom;
  cap.keyed_short_ids = cfg.keyed_short_ids;
  cap.near_equal_fpr = cfg.near_equal_fpr;
  cap.enable_pingpong = cfg.enable_pingpong;
  cap.round_trip_bytes = cfg.round_trip_bytes;
  cap.mempool = mempool.transactions();
  if (obs::Registry* reg = cfg.obs) {
    for (obs::FlightEvent& e : reg->recorder().events()) {
      if (e.seq >= first_seq) cap.events.push_back(std::move(e));
    }
  }
  return cap;
}

void attach_block(ForensicCapture& cap, const chain::Block& block,
                  std::uint64_t claimed_m) {
  cap.has_block = true;
  cap.block_header = block.header();
  cap.block_txns = block.transactions();
  cap.claimed_m = claimed_m;
}

std::string dump_capture(const ForensicCapture& cap, const std::string& dir) {
  // Process-wide counter keeps names unique without a clock (obs rule: no
  // direct chrono reads outside src/obs, and replay must be time-free).
  static std::atomic<std::uint64_t> seq{0};
  const std::uint64_t id = seq.fetch_add(1, std::memory_order_relaxed);
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "graphene_capture_" + cap.kind + "_" + u64_hex(cap.salt) + "_" +
          std::to_string(id) + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("dump_capture: cannot open " + path);
  out << cap.to_json() << '\n';
  out.flush();
  if (!out) throw std::runtime_error("dump_capture: write failed for " + path);
  return path;
}

namespace {

std::uint64_t capture_limit() {
  static const std::uint64_t limit = [] {
    const char* env = std::getenv("GRAPHENE_CAPTURE_LIMIT");
    if (env != nullptr && *env != '\0') {
      const long long v = std::atoll(env);
      if (v > 0) return static_cast<std::uint64_t>(v);
    }
    return std::uint64_t{16};
  }();
  return limit;
}

std::atomic<std::uint64_t>& captures_dumped() {
  static std::atomic<std::uint64_t> dumped{0};
  return dumped;
}

}  // namespace

bool capture_enabled() {
  const char* dir = std::getenv("GRAPHENE_CAPTURE_DIR");
  if (dir == nullptr || *dir == '\0') return false;
  return captures_dumped().load(std::memory_order_relaxed) < capture_limit();
}

std::optional<std::string> maybe_dump_capture(const ForensicCapture& cap) {
  const char* dir = std::getenv("GRAPHENE_CAPTURE_DIR");
  if (dir == nullptr || *dir == '\0') return std::nullopt;
  if (captures_dumped().fetch_add(1, std::memory_order_relaxed) >= capture_limit()) {
    return std::nullopt;
  }
  try {
    return dump_capture(cap, dir);
  } catch (...) {
    return std::nullopt;  // forensics must never take down the protocol path
  }
}

ReplayReport replay_capture(const ForensicCapture& cap) {
  ReplayReport rep;

  // Recorded outcome: the last decode/error event in the timeline.
  for (const obs::FlightEvent& e : cap.events) {
    if (e.kind == obs::FlightEventKind::kDecode) {
      rep.recorded_outcome =
          e.label + ":" + status_code_label(static_cast<int>(e.attr("status", -1)));
    } else if (e.kind == obs::FlightEventKind::kError) {
      rep.recorded_outcome = "error:" + e.label;
    }
  }
  if (rep.recorded_outcome.empty()) rep.recorded_outcome = cap.kind;

  chain::Mempool pool;
  for (const chain::Transaction& tx : cap.mempool) pool.insert(tx);
  const ProtocolConfig cfg = cap.config();
  ReceiveSession session(pool, cfg);
  std::optional<Sender> sender;
  if (cap.has_block) {
    sender.emplace(chain::Block(cap.block_header, cap.block_txns), cap.salt, cfg);
  }

  std::optional<GrapheneRequestMsg> last_req;
  RepairRequestMsg last_repair;
  int last_code = -1;
  std::string last_stage;
  std::string err_stage;

  const auto compare = [&rep](const util::Bytes& got, const obs::FlightEvent& e,
                              const char* what) {
    if (e.wire.empty()) return;  // recorded without wire capture
    if (got != e.wire) {
      rep.bytes_match = false;
      rep.notes.push_back(std::string(what) + ": regenerated " +
                          std::to_string(got.size()) + " bytes != recorded " +
                          std::to_string(e.wire.size()) + " bytes");
    }
  };

  for (const obs::FlightEvent& e : cap.events) {
    try {
      switch (e.kind) {
        case obs::FlightEventKind::kMsgReceived: {
          if (e.label != "grblk" && e.label != "grresp" && e.label != "blocktxn") break;
          if (e.wire.empty()) {
            rep.notes.push_back(e.label + ": recorded without wire bytes; cannot replay");
            break;
          }
          util::ByteReader reader(e.wire);
          if (e.label == "grblk") {
            const GrapheneBlockMsg msg = GrapheneBlockMsg::deserialize(reader);
            last_code = static_cast<int>(session.receive_block(msg).status);
            last_stage = "p1";
          } else if (e.label == "grresp") {
            const GrapheneResponseMsg resp = GrapheneResponseMsg::deserialize(reader);
            last_code = static_cast<int>(session.complete(resp).status);
            last_stage = "p2";
          } else {
            const RepairResponseMsg resp = RepairResponseMsg::deserialize(reader);
            last_code = static_cast<int>(session.complete_repair(resp).status);
            last_stage = "repair";
          }
          rep.ran = true;
          break;
        }
        case obs::FlightEventKind::kMsgSent: {
          if (e.label == "grreq") {
            GrapheneRequestMsg req = session.build_request();
            compare(req.serialize(), e, "grreq");
            last_req = std::move(req);
            rep.ran = true;
          } else if (e.label == "getblocktxn") {
            last_repair = session.build_repair();
            compare(last_repair.serialize(), e, "getblocktxn");
            rep.ran = true;
          } else if (sender.has_value() && e.label == "grblk") {
            const auto m = static_cast<std::uint64_t>(
                e.attr("m", static_cast<double>(cap.claimed_m)));
            compare(sender->encode(m).msg.serialize(), e, "grblk");
            rep.ran = true;
          } else if (sender.has_value() && e.label == "grresp" && last_req.has_value()) {
            compare(sender->serve(*last_req).serialize(), e, "grresp");
            rep.ran = true;
          } else if (sender.has_value() && e.label == "blocktxn") {
            compare(sender->serve_repair(last_repair).serialize(), e, "blocktxn");
            rep.ran = true;
          }
          break;
        }
        case obs::FlightEventKind::kDecode: {
          const int want = static_cast<int>(e.attr("status", -1));
          if (want != last_code) {
            rep.outcome_match = false;
            rep.notes.push_back(e.label + ": recorded " + status_code_label(want) +
                                ", replayed " + status_code_label(last_code));
          }
          break;
        }
        case obs::FlightEventKind::kError: {
          // A receiver that raised in build_request sent nothing, so its
          // error event is the only trace of the call: make it again.
          if (err_stage.empty() && e.label == "build_request") {
            (void)session.build_request();
          }
          if (err_stage != e.label) {
            rep.outcome_match = false;
            rep.notes.push_back("recorded ProtocolError at " + e.label + ", replay " +
                                (err_stage.empty() ? std::string("did not throw")
                                                   : "threw at " + err_stage));
          }
          break;
        }
        case obs::FlightEventKind::kNote:
          break;  // link traffic, repair triggers — informational only
      }
    } catch (const ProtocolError& pe) {
      err_stage = pe.stage();
      rep.ran = true;
    } catch (const util::DeserializeError&) {
      // Corrupt recorded wire (a FaultyChannel capture): the replayed parse
      // fails exactly like the original did — recorded as a "channel" error.
      err_stage = "channel";
      rep.ran = true;
    }
  }

  if (!err_stage.empty()) {
    rep.replayed_outcome = "error:" + err_stage;
  } else if (last_code >= 0) {
    rep.replayed_outcome = last_stage + ":" + status_code_label(last_code);
  } else {
    rep.replayed_outcome = "nothing-replayed";
  }
  return rep;
}

}  // namespace graphene::core
