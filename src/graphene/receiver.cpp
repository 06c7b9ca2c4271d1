#include "graphene/receiver.hpp"

#include <algorithm>

#include "chain/merkle.hpp"
#include "graphene/errors.hpp"
#include "graphene/forensics.hpp"
#include "graphene/sender.hpp"  // kBlockKeys
#include "obs/obs.hpp"

namespace graphene::core {

const char* to_string(ReceiveStatus status) noexcept {
  switch (status) {
    case ReceiveStatus::kDecoded: return "decoded";
    case ReceiveStatus::kNeedsProtocol2: return "needs_protocol2";
    case ReceiveStatus::kNeedsRepair: return "needs_repair";
    case ReceiveStatus::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// Label value for the per-outcome decode counters.
const char* status_label(ReceiveStatus status) noexcept { return to_string(status); }

}  // namespace

ReceiveSession::ReceiveSession(const chain::Mempool& mempool, ProtocolConfig cfg)
    : mempool_(&mempool), cfg_(cfg), engine_(kBlockKeys, cfg, cfg.obs) {
  if (obs::Registry* reg = cfg_.obs) {
    first_event_ = reg->recorder().total_recorded();
  }
}

Receiver::Receiver(const chain::Mempool& mempool, ProtocolConfig cfg)
    : mempool_(&mempool), cfg_(cfg) {}

ReceiveOutcome ReceiveSession::receive_block(const GrapheneBlockMsg& msg) {
  obs::Registry* reg = cfg_.obs;
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgReceived, "grblk", msg,
                    {{"n", static_cast<double>(msg.n)},
                     {"m", static_cast<double>(mempool_->size())},
                     {"bloom_bytes", static_cast<double>(msg.filter_s.serialized_size())},
                     {"fpr_s", msg.filter_s.target_fpr()},
                     {"iblt_cells", static_cast<double>(msg.iblt_i.cell_count())},
                     {"iblt_bytes", static_cast<double>(msg.iblt_i.serialized_size())}});
  }
  header_ = msg.header;
  n_ = msg.n;
  salt_ = msg.shortid_salt;
  have_block_msg_ = true;
  received_txns_.clear();

  // Step 4: the candidate set Z = mempool transactions passing S, then I ⊖ I′.
  engine_.filter(msg.shortid_salt, msg.n, mempool_->id_view(), msg.filter_s);
  const Peel peel = engine_.peel(msg.iblt_i);
  ReceiveOutcome out;
  if (peel.status == Resolution::kDecoded) {
    out = verify();
    if (out.status != ReceiveStatus::kDecoded) out.status = ReceiveStatus::kNeedsProtocol2;
  } else {
    out.status = peel.status == Resolution::kFailed ? ReceiveStatus::kFailed
                                                    : ReceiveStatus::kNeedsProtocol2;
  }
  if (reg != nullptr) {
    reg->counter("graphene_p1_decode_total", {{"result", status_label(out.status)}})
        .inc();
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_event(*fr, obs::FlightEventKind::kDecode, "p1",
                      {{"status", static_cast<double>(static_cast<int>(out.status))},
                       {"z", static_cast<double>(engine_.observed_z())},
                       {"peel_iterations", static_cast<double>(peel.decode.peel_iterations)},
                       {"peeled", static_cast<double>(peel.decode.peeled())},
                       {"residual_cells", static_cast<double>(peel.decode.residual_cells)}});
  }
  if (out.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "p1_peel");
  return out;
}

ErrorContext ReceiveSession::error_context() const noexcept {
  ErrorContext ctx;
  ctx.have_block_msg = have_block_msg_;
  ctx.n = n_;
  ctx.m = mempool_->size();
  ctx.z = engine_.observed_z();
  ctx.x_star = engine_.params().x_star;
  ctx.y_star = engine_.params().y_star;
  ctx.b = engine_.params().b;
  return ctx;
}

void ReceiveSession::raise(const char* stage, const char* what) const {
  const ErrorContext ctx = error_context();
  if (obs::Registry* reg = cfg_.obs) {
    obs::ScopedSpan span(reg, "error");
    span.attr("have_block_msg", ctx.have_block_msg ? 1 : 0);
    span.attr("n", ctx.n);
    span.attr("m", ctx.m);
    span.attr("z", ctx.z);
    span.attr("x_star", ctx.x_star);
    span.attr("y_star", ctx.y_star);
    span.attr("b", ctx.b);
    reg->counter("graphene_protocol_errors_total", {{"stage", stage}}).inc();
    if (obs::FlightRecorder* fr = obs::flight(reg)) {
      obs::record_event(*fr, obs::FlightEventKind::kError, stage,
                        {{"have_block_msg", ctx.have_block_msg ? 1.0 : 0.0},
                         {"n", static_cast<double>(ctx.n)},
                         {"m", static_cast<double>(ctx.m)},
                         {"z", static_cast<double>(ctx.z)},
                         {"x_star", static_cast<double>(ctx.x_star)},
                         {"y_star", static_cast<double>(ctx.y_star)},
                         {"b", static_cast<double>(ctx.b)}});
    }
  }
  dump_failure("protocol_error", stage);
  throw ProtocolError(stage, what, ctx);
}

void ReceiveSession::dump_failure(const char* kind, const char* stage) const {
  if (obs::Registry* reg = cfg_.obs; reg != nullptr && capture_enabled()) {
    ForensicCapture cap = make_capture(kind, stage, *mempool_, cfg_, salt_, first_event_);
    cap.has_error = true;
    cap.error = error_context();
    if (maybe_dump_capture(cap).has_value()) {
      reg->counter("graphene_captures_total", {{"kind", kind}}).inc();
    }
  }
}

GrapheneRequestMsg ReceiveSession::build_request() {
  obs::Registry* reg = cfg_.obs;
  if (!have_block_msg_) {
    raise("build_request", "no block message received");
  }
  GrapheneRequestMsg req = engine_.request(mempool_->size());
  if (reg != nullptr) {
    reg->histogram("graphene_bloom_r_bytes").observe(req.filter.serialized_size());
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "grreq", req,
                    {{"z", static_cast<double>(req.z)},
                     {"b", static_cast<double>(req.b)},
                     {"x_star", static_cast<double>(engine_.params().x_star)},
                     {"y_star", static_cast<double>(req.y_star)},
                     {"fpr_r", req.fpr_r},
                     {"reversed", req.reversed ? 1.0 : 0.0},
                     {"bloom_bytes", static_cast<double>(req.filter.serialized_size())}});
  }
  return req;
}

ReceiveOutcome ReceiveSession::complete(const GrapheneResponseMsg& resp) {
  obs::Registry* reg = cfg_.obs;
  if (!have_block_msg_) return {};  // kFailed: nothing to complete
  obs::ScopedSpan p2_span(reg, "p2_peel");
  p2_span.attr("missing", resp.missing.size());

  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgReceived, "grresp", resp,
                    {{"missing", static_cast<double>(resp.missing.size())},
                     {"missing_tx_bytes", static_cast<double>(resp.missing_tx_bytes())},
                     {"j_cells", static_cast<double>(resp.iblt_j.cell_count())},
                     {"j_bytes", static_cast<double>(resp.iblt_j.serialized_size())},
                     {"has_filter_f", resp.filter_f.has_value() ? 1.0 : 0.0}});
  }

  // Step 5: fold in the directly-sent transactions, then J ⊖ J′.
  std::vector<chain::TxId> missing;
  missing.reserve(resp.missing.size());
  for (const chain::Transaction& tx : resp.missing) {
    received_txns_.emplace(tx.id, tx);
    missing.push_back(tx.id);
  }
  const Peel peel = engine_.complete(resp.iblt_j, resp.filter_f, missing);
  p2_span.attr("j_cells", resp.iblt_j.cell_count());
  p2_span.attr("peel_iterations", peel.decode.peel_iterations);
  p2_span.attr("peeled", peel.decode.peeled());
  p2_span.attr("residual_cells", peel.decode.residual_cells);
  p2_span.attr("success", peel.decode.success ? 1 : 0);

  ReceiveOutcome out;
  out.used_pingpong = engine_.used_pingpong();
  if (peel.status == Resolution::kNeedsFetch) {
    out.status = ReceiveStatus::kNeedsRepair;
    out.unresolved = engine_.unresolved();
  } else if (peel.status == Resolution::kDecoded) {
    out = verify();
  }
  if (reg != nullptr && peel.status != Resolution::kFailed) {
    reg->counter("graphene_p2_decode_total", {{"result", status_label(out.status)}})
        .inc();
  }
  // The decode outcome — what a forensic replay must reproduce — always
  // lands in the flight log.
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_event(*fr, obs::FlightEventKind::kDecode, "p2",
                      {{"status", static_cast<double>(static_cast<int>(out.status))},
                       {"used_pingpong", out.used_pingpong ? 1.0 : 0.0},
                       {"pingpong_rounds", static_cast<double>(peel.pingpong_rounds)},
                       {"unresolved", static_cast<double>(out.unresolved.size())}});
    if (out.status == ReceiveStatus::kNeedsRepair) {
      obs::record_event(*fr, obs::FlightEventKind::kNote, "repair_trigger",
                        {{"unresolved", static_cast<double>(out.unresolved.size())}});
    }
  }
  if (out.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "p2_peel");
  return out;
}

RepairRequestMsg ReceiveSession::build_repair() const {
  RepairRequestMsg req;
  req.short_ids = engine_.unresolved();
  if (obs::FlightRecorder* fr = obs::flight(cfg_.obs)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgSent, "getblocktxn", req,
                    {{"short_ids", static_cast<double>(req.short_ids.size())}});
  }
  return req;
}

ReceiveOutcome ReceiveSession::complete_repair(const RepairResponseMsg& resp) {
  obs::Registry* reg = cfg_.obs;
  obs::ScopedSpan span(reg, "repair");
  span.attr("requested", engine_.unresolved().size());
  span.attr("received", resp.txns.size());
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_msg(*fr, obs::FlightEventKind::kMsgReceived, "blocktxn", resp,
                    {{"requested", static_cast<double>(engine_.unresolved().size())},
                     {"txns", static_cast<double>(resp.txns.size())}});
  }
  std::vector<chain::TxId> fetched;
  fetched.reserve(resp.txns.size());
  for (const chain::Transaction& tx : resp.txns) {
    received_txns_.emplace(tx.id, tx);
    fetched.push_back(tx.id);
  }
  engine_.add_fetched(fetched);
  const ReceiveOutcome out = verify();
  span.attr("decoded", out.status == ReceiveStatus::kDecoded ? 1 : 0);
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::record_event(*fr, obs::FlightEventKind::kDecode, "repair",
                      {{"status", static_cast<double>(static_cast<int>(out.status))},
                       {"merkle_ok", out.merkle_ok ? 1.0 : 0.0}});
  }
  if (out.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "repair");
  return out;
}

ReceiveOutcome ReceiveSession::verify() const {
  ReceiveOutcome out;
  out.used_pingpong = engine_.used_pingpong();
  std::vector<chain::TxId> ids(engine_.candidates().begin(), engine_.candidates().end());
  std::sort(ids.begin(), ids.end());
  out.merkle_ok = ids.size() == n_ && chain::merkle_root(ids) == header_.merkle_root;
  if (out.merkle_ok) {
    out.block_ids = std::move(ids);
    out.status = ReceiveStatus::kDecoded;
  } else {
    out.status = ReceiveStatus::kFailed;
  }
  return out;
}

std::vector<chain::Transaction> ReceiveSession::block_transactions() const {
  std::vector<chain::Transaction> out;
  out.reserve(engine_.candidates().size());
  for (const chain::TxId& id : engine_.candidates()) {
    if (const auto tx = mempool_->get(id)) {
      out.push_back(*tx);
    } else if (const auto it = received_txns_.find(id); it != received_txns_.end()) {
      out.push_back(it->second);
    }
  }
  std::sort(out.begin(), out.end(), chain::CtorLess{});
  return out;
}

}  // namespace graphene::core
