#include "graphene/receiver.hpp"

#include <span>

#include <algorithm>

#include "bloom/bloom_math.hpp"
#include "chain/merkle.hpp"
#include "graphene/errors.hpp"
#include "graphene/forensics.hpp"
#include "graphene/sender.hpp"  // derive_short_id
#include "iblt/pingpong.hpp"
#include "obs/obs.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

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

/// Batch-queries `filter` over `ids` (chunk-parallel when `pool` is set);
/// out[i] = 1 iff ids[i] passes. The hit pattern is identical to querying
/// one id at a time.
std::span<const std::uint8_t> scan_ids(const bloom::BloomFilter& filter,
                                       const std::vector<chain::TxId>& ids,
                                       util::ThreadPool* pool,
                                       util::ScratchScope& scratch) {
  const std::span<util::ByteView> views = scratch.span<util::ByteView>(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    views[i] = util::ByteView(ids[i].data(), ids[i].size());
  }
  const std::span<std::uint8_t> hit = scratch.span<std::uint8_t>(ids.size());
  bloom::contains_all(filter, views.data(), views.size(), hit.data(), pool);
  return hit;
}

}  // namespace

ReceiveSession::ReceiveSession(const chain::Mempool& mempool, ProtocolConfig cfg)
    : mempool_(&mempool), cfg_(cfg) {}

Receiver::Receiver(const chain::Mempool& mempool, ProtocolConfig cfg)
    : mempool_(&mempool), cfg_(cfg) {}

std::uint64_t ReceiveSession::sid(const chain::TxId& id) const noexcept {
  return derive_short_id(id, msg_.shortid_salt, cfg_);
}

void ReceiveSession::index_candidate(const chain::TxId& id) {
  const std::uint64_t s = sid(id);
  const auto [it, inserted] = sid_to_txid_.emplace(s, id);
  if (!inserted && it->second != id) ambiguous_sids_.insert(s);
  candidates_.insert(id);
}

ReceiveOutcome ReceiveSession::receive_block(const GrapheneBlockMsg& msg) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgReceived;
    e.label = "grblk";
    if (fr->wire_capture()) e.wire = msg.serialize();
    e.attrs = {{"n", static_cast<double>(msg.n)},
               {"m", static_cast<double>(mempool_->size())},
               {"bloom_bytes", static_cast<double>(msg.filter_s.serialized_size())},
               {"fpr_s", msg.filter_s.target_fpr()},
               {"iblt_cells", static_cast<double>(msg.iblt_i.cell_count())},
               {"iblt_bytes", static_cast<double>(msg.iblt_i.serialized_size())}};
    fr->record(std::move(e));
  }
  msg_ = msg;
  have_block_msg_ = true;
  used_pingpong_ = false;
  sid_to_txid_.clear();
  ambiguous_sids_.clear();
  candidates_.clear();
  received_txns_.clear();
  pending_unresolved_.clear();

  {
    // Step 4: the candidate set Z = mempool transactions passing S.
    obs::ScopedSpan span(reg, "p1_candidates");
    const std::uint64_t queries_before = msg.filter_s.query_count();
    const std::uint64_t hits_before = msg.filter_s.hit_count();
    // Membership runs through the batch scan (chunk-parallel with a pool);
    // candidate indexing stays serial and in mempool order, so the session
    // state matches the one-query-at-a-time loop exactly.
    const std::vector<chain::TxId> ids = mempool_->ids();
    util::ScratchScope scratch;  // session scan scratch, recycled per relay
    const std::span<const std::uint8_t> hit =
        scan_ids(msg.filter_s, ids, cfg_.pool, scratch);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (hit[i] != 0) index_candidate(ids[i]);
    }
    z_ = candidates_.size();
    span.attr("m", mempool_->size());
    span.attr("n", msg.n);
    span.attr("z", z_);
    span.attr("target_fpr", msg.filter_s.target_fpr());
    span.attr("filter_queries", msg.filter_s.query_count() - queries_before);
    span.attr("filter_hits", msg.filter_s.hit_count() - hits_before);
  }

  ReceiveOutcome out;
  std::uint64_t peel_iterations = 0;
  std::uint64_t peeled_items = 0;
  std::uint64_t residual_cells = 0;
  {
    obs::ScopedSpan span(reg, "p1_peel");
    // I′ over Z with the sender's parameters, then I ⊖ I′.
    iblt::Iblt i_prime(iblt::IbltParams{msg.iblt_i.hash_count(), msg.iblt_i.cell_count()},
                       msg.iblt_i.seed());
    std::vector<std::uint64_t> sids;
    sids.reserve(candidates_.size());
    for (const chain::TxId& id : candidates_) sids.push_back(sid(id));
    i_prime.insert_all(sids);

    const iblt::DecodeResult dec = msg.iblt_i.subtract(i_prime).decode();
    peel_iterations = dec.peel_iterations;
    peeled_items = dec.peeled();
    residual_cells = dec.residual_cells;
    span.attr("cells", msg.iblt_i.cell_count());
    span.attr("k", msg.iblt_i.hash_count());
    span.attr("peel_iterations", dec.peel_iterations);
    span.attr("peeled", dec.peeled());
    span.attr("residual_cells", dec.residual_cells);
    span.attr("success", dec.success ? 1 : 0);
    span.attr("malformed", dec.malformed ? 1 : 0);
    if (reg != nullptr) {
      reg->histogram("graphene_peel_iterations", {{"iblt", "i"}})
          .observe(dec.peel_iterations);
    }

    if (dec.malformed) {
      out.status = ReceiveStatus::kFailed;
    } else if (!dec.success || !dec.positives.empty()) {
      // Either the IBLT kept a 2-core, or the block contains transactions the
      // receiver does not hold (positives carry only short IDs) — Protocol 2.
      out.status = ReceiveStatus::kNeedsProtocol2;
    } else {
      out.status = ReceiveStatus::kDecoded;  // provisional; negatives next
      for (const std::uint64_t s : dec.negatives) {
        if (ambiguous_sids_.count(s) > 0) {
          out.status = ReceiveStatus::kNeedsProtocol2;
          break;
        }
        const auto it = sid_to_txid_.find(s);
        if (it == sid_to_txid_.end()) {
          out.status = ReceiveStatus::kNeedsProtocol2;
          break;
        }
        candidates_.erase(it->second);
      }
    }
  }

  if (out.status == ReceiveStatus::kDecoded) {
    out = finalize({});
    if (out.status != ReceiveStatus::kDecoded) out.status = ReceiveStatus::kNeedsProtocol2;
  }
  if (reg != nullptr) {
    reg->counter("graphene_p1_decode_total", {{"result", status_label(out.status)}})
        .inc();
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kDecode;
    e.label = "p1";
    e.attrs = {{"status", static_cast<double>(static_cast<int>(out.status))},
               {"z", static_cast<double>(z_)},
               {"peel_iterations", static_cast<double>(peel_iterations)},
               {"peeled", static_cast<double>(peeled_items)},
               {"residual_cells", static_cast<double>(residual_cells)}};
    fr->record(std::move(e));
  }
  if (out.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "p1_peel");
  return out;
}

ErrorContext ReceiveSession::error_context() const noexcept {
  ErrorContext ctx;
  ctx.have_block_msg = have_block_msg_;
  ctx.n = msg_.n;
  ctx.m = mempool_->size();
  ctx.z = z_;
  ctx.x_star = params2_.x_star;
  ctx.y_star = params2_.y_star;
  ctx.b = params2_.b;
  return ctx;
}

void ReceiveSession::raise(const char* stage, const char* what) const {
  const ErrorContext ctx = error_context();
  if (obs::Registry* reg = obs::enabled(cfg_.obs)) {
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
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kError;
      e.label = stage;
      e.attrs = {{"have_block_msg", ctx.have_block_msg ? 1.0 : 0.0},
                 {"n", static_cast<double>(ctx.n)},
                 {"m", static_cast<double>(ctx.m)},
                 {"z", static_cast<double>(ctx.z)},
                 {"x_star", static_cast<double>(ctx.x_star)},
                 {"y_star", static_cast<double>(ctx.y_star)},
                 {"b", static_cast<double>(ctx.b)}};
      fr->record(std::move(e));
    }
  }
  dump_failure("protocol_error", stage);
  throw ProtocolError(stage, what, ctx);
}

void ReceiveSession::dump_failure(const char* kind, const char* stage) const {
  if (obs::Registry* reg = obs::enabled(cfg_.obs); reg != nullptr && capture_enabled()) {
    ForensicCapture cap = make_capture(kind, stage, *mempool_, cfg_, msg_.shortid_salt);
    cap.has_error = true;
    cap.error = error_context();
    if (maybe_dump_capture(cap).has_value()) {
      reg->counter("graphene_captures_total", {{"kind", kind}}).inc();
    }
  }
}

GrapheneRequestMsg ReceiveSession::build_request() {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  if (!have_block_msg_) {
    raise("build_request", "no block message received");
  }
  const std::uint64_t z = candidates_.size();
  const double f_s =
      bloom::expected_fpr(msg_.filter_s.bit_count(), msg_.filter_s.hash_count(), msg_.n);
  {
    // Theorem-2/3 bound computation plus the b-optimization of §3.3.2.
    obs::ScopedSpan span(reg, "thm_bounds");
    params2_ = optimize_protocol2(z, mempool_->size(), msg_.n, f_s, cfg_);
    span.attr("z", z);
    span.attr("m", mempool_->size());
    span.attr("n", msg_.n);
    span.attr("f_s", f_s);
    span.attr("x_star", params2_.x_star);
    span.attr("y_star", params2_.y_star);
    span.attr("b", params2_.b);
    span.attr("fpr_r", params2_.fpr);
    span.attr("reversed", params2_.reversed ? 1 : 0);
  }

  GrapheneRequestMsg req;
  req.z = z;
  req.b = params2_.b;
  req.y_star = params2_.y_star;
  req.fpr_r = params2_.fpr;
  req.reversed = params2_.reversed;
  {
    obs::ScopedSpan span(reg, "rfilter_build");
    req.filter_r =
        bloom::BloomFilter(std::max<std::uint64_t>(z, 1), params2_.fpr,
                           /*seed=*/msg_.shortid_salt ^ 0x42d551f17e1dULL,
                           cfg_.bloom_strategy);
    util::ScratchScope scratch;
    const std::span<util::ByteView> views =
        scratch.span<util::ByteView>(candidates_.size());
    std::size_t at = 0;
    for (const chain::TxId& id : candidates_) {
      views[at++] = util::ByteView(id.data(), id.size());
    }
    req.filter_r.insert_batch(views.data(), views.size());
    span.attr("items", z);
    span.attr("bits", req.filter_r.bit_count());
  }
  if (reg != nullptr) {
    reg->histogram("graphene_bloom_r_bytes").observe(req.filter_r.serialized_size());
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgSent;
    e.label = "grreq";
    if (fr->wire_capture()) e.wire = req.serialize();
    e.attrs = {{"z", static_cast<double>(z)},
               {"b", static_cast<double>(params2_.b)},
               {"x_star", static_cast<double>(params2_.x_star)},
               {"y_star", static_cast<double>(params2_.y_star)},
               {"fpr_r", params2_.fpr},
               {"reversed", params2_.reversed ? 1.0 : 0.0},
               {"bloom_bytes", static_cast<double>(req.filter_r.serialized_size())}};
    fr->record(std::move(e));
  }
  return req;
}

ReceiveOutcome ReceiveSession::complete(const GrapheneResponseMsg& resp) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  ReceiveOutcome out;
  if (!have_block_msg_) return out;  // kFailed: nothing to complete
  obs::ScopedSpan p2_span(reg, "p2_peel");
  p2_span.attr("missing", resp.missing.size());

  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgReceived;
    e.label = "grresp";
    if (fr->wire_capture()) e.wire = resp.serialize();
    e.attrs = {{"missing", static_cast<double>(resp.missing.size())},
               {"missing_tx_bytes", static_cast<double>(resp.missing_tx_bytes())},
               {"j_cells", static_cast<double>(resp.iblt_j.cell_count())},
               {"j_bytes", static_cast<double>(resp.iblt_j.serialized_size())},
               {"has_filter_f", resp.filter_f.has_value() ? 1.0 : 0.0}};
    fr->record(std::move(e));
  }
  std::uint64_t pingpong_rounds = 0;
  // Every exit routes through here so the decode outcome — the thing a
  // forensic replay must reproduce — always lands in the flight log.
  const auto finish = [&](ReceiveOutcome o) {
    if (obs::FlightRecorder* fr = obs::flight(reg)) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kDecode;
      e.label = "p2";
      e.attrs = {{"status", static_cast<double>(static_cast<int>(o.status))},
                 {"used_pingpong", o.used_pingpong ? 1.0 : 0.0},
                 {"pingpong_rounds", static_cast<double>(pingpong_rounds)},
                 {"unresolved", static_cast<double>(o.unresolved.size())}};
      fr->record(std::move(e));
      if (o.status == ReceiveStatus::kNeedsRepair) {
        obs::FlightEvent trigger;
        trigger.kind = obs::FlightEventKind::kNote;
        trigger.label = "repair_trigger";
        trigger.attrs = {{"unresolved", static_cast<double>(o.unresolved.size())}};
        fr->record(std::move(trigger));
      }
    }
    if (o.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "p2_peel");
    return o;
  };

  // In the reversed (m ≈ n) path, filter F prunes candidates the sender's
  // block does not contain before the new transactions are added.
  if (params2_.reversed && resp.filter_f.has_value()) {
    const std::vector<chain::TxId> cand(candidates_.begin(), candidates_.end());
    util::ScratchScope scratch;
    const std::span<const std::uint8_t> hit =
        scan_ids(*resp.filter_f, cand, cfg_.pool, scratch);
    for (std::size_t i = 0; i < cand.size(); ++i) {
      if (hit[i] == 0) candidates_.erase(cand[i]);
    }
  }

  // Step 5: fold in the directly-sent transactions.
  for (const chain::Transaction& tx : resp.missing) {
    received_txns_.emplace(tx.id, tx);
    index_candidate(tx.id);
  }

  // J′ over the updated candidate set; then J ⊖ J′.
  iblt::Iblt j_prime(iblt::IbltParams{resp.iblt_j.hash_count(), resp.iblt_j.cell_count()},
                     resp.iblt_j.seed());
  {
    std::vector<std::uint64_t> sids;
    sids.reserve(candidates_.size());
    for (const chain::TxId& id : candidates_) sids.push_back(sid(id));
    j_prime.insert_all(sids);
  }
  const iblt::Iblt diff_j = resp.iblt_j.subtract(j_prime);

  iblt::DecodeResult dec = diff_j.decode();
  p2_span.attr("j_cells", resp.iblt_j.cell_count());
  p2_span.attr("peel_iterations", dec.peel_iterations);
  p2_span.attr("peeled", dec.peeled());
  p2_span.attr("residual_cells", dec.residual_cells);
  p2_span.attr("success", dec.success ? 1 : 0);
  if (reg != nullptr) {
    reg->histogram("graphene_peel_iterations", {{"iblt", "j"}})
        .observe(dec.peel_iterations);
  }

  if (dec.malformed) {
    out.status = ReceiveStatus::kFailed;
    return finish(std::move(out));
  }
  if (!dec.success && have_block_msg_ && cfg_.enable_pingpong) {
    // Ping-pong (§4.2): rebuild I′ over the *current* candidates so both
    // differences describe the same set pair, then decode jointly.
    obs::ScopedSpan pp_span(reg, "pingpong");
    iblt::Iblt i_prime(
        iblt::IbltParams{msg_.iblt_i.hash_count(), msg_.iblt_i.cell_count()},
        msg_.iblt_i.seed());
    std::vector<std::uint64_t> sids;
    sids.reserve(candidates_.size());
    for (const chain::TxId& id : candidates_) sids.push_back(sid(id));
    i_prime.insert_all(sids);
    const iblt::PingPongResult pp =
        iblt::pingpong_decode(diff_j, msg_.iblt_i.subtract(i_prime));
    pingpong_rounds = pp.rounds;
    pp_span.attr("rounds", pp.rounds);
    pp_span.attr("success", pp.success ? 1 : 0);
    pp_span.attr("malformed", pp.malformed ? 1 : 0);
    if (reg != nullptr) {
      reg->histogram("graphene_pingpong_rounds").observe(pp.rounds);
      reg->counter("graphene_pingpong_total",
                   {{"result", pp.success ? "rescued" : "failed"}})
          .inc();
    }
    if (pp.malformed) {
      out.status = ReceiveStatus::kFailed;
      return finish(std::move(out));
    }
    used_pingpong_ = true;
    dec.success = pp.success;
    dec.positives = pp.positives;
    dec.negatives = pp.negatives;
  }
  if (!dec.success) {
    out.status = ReceiveStatus::kFailed;
    out.used_pingpong = used_pingpong_;
    return finish(std::move(out));
  }

  for (const std::uint64_t s : dec.negatives) {
    if (ambiguous_sids_.count(s) > 0) {
      out.status = ReceiveStatus::kFailed;
      return finish(std::move(out));
    }
    const auto it = sid_to_txid_.find(s);
    if (it != sid_to_txid_.end()) candidates_.erase(it->second);
  }

  std::vector<std::uint64_t> unresolved;
  for (const std::uint64_t s : dec.positives) {
    const auto it = sid_to_txid_.find(s);
    if (it != sid_to_txid_.end() && ambiguous_sids_.count(s) == 0) {
      // The receiver holds this transaction after all (it was pruned by F or
      // never passed S); restore it.
      if (mempool_->contains(it->second) || received_txns_.count(it->second) > 0) {
        candidates_.insert(it->second);
        continue;
      }
    }
    unresolved.push_back(s);
  }

  out = finalize(std::move(unresolved));
  if (reg != nullptr) {
    reg->counter("graphene_p2_decode_total", {{"result", status_label(out.status)}})
        .inc();
  }
  return finish(std::move(out));
}

RepairRequestMsg ReceiveSession::build_repair() const {
  RepairRequestMsg req;
  req.short_ids = pending_unresolved_;
  if (obs::FlightRecorder* fr = obs::flight(obs::enabled(cfg_.obs))) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgSent;
    e.label = "getblocktxn";
    if (fr->wire_capture()) e.wire = req.serialize();
    e.attrs = {{"short_ids", static_cast<double>(req.short_ids.size())}};
    fr->record(std::move(e));
  }
  return req;
}

ReceiveOutcome ReceiveSession::complete_repair(const RepairResponseMsg& resp) {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  obs::ScopedSpan span(reg, "repair");
  span.attr("requested", pending_unresolved_.size());
  span.attr("received", resp.txns.size());
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgReceived;
    e.label = "blocktxn";
    if (fr->wire_capture()) e.wire = resp.serialize();
    e.attrs = {{"requested", static_cast<double>(pending_unresolved_.size())},
               {"txns", static_cast<double>(resp.txns.size())}};
    fr->record(std::move(e));
  }
  for (const chain::Transaction& tx : resp.txns) {
    received_txns_.emplace(tx.id, tx);
    index_candidate(tx.id);
  }
  const ReceiveOutcome out = finalize({});
  span.attr("decoded", out.status == ReceiveStatus::kDecoded ? 1 : 0);
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kDecode;
    e.label = "repair";
    e.attrs = {{"status", static_cast<double>(static_cast<int>(out.status))},
               {"merkle_ok", out.merkle_ok ? 1.0 : 0.0}};
    fr->record(std::move(e));
  }
  if (out.status == ReceiveStatus::kFailed) dump_failure("decode_failure", "repair");
  return out;
}

ReceiveOutcome ReceiveSession::finalize(std::vector<std::uint64_t> unresolved) {
  ReceiveOutcome out;
  out.used_pingpong = used_pingpong_;
  if (!unresolved.empty()) {
    pending_unresolved_ = std::move(unresolved);
    out.unresolved = pending_unresolved_;
    out.status = ReceiveStatus::kNeedsRepair;
    return out;
  }
  pending_unresolved_.clear();

  std::vector<chain::TxId> ids(candidates_.begin(), candidates_.end());
  std::sort(ids.begin(), ids.end());
  out.merkle_ok =
      ids.size() == msg_.n && chain::merkle_root(ids) == msg_.header.merkle_root;
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
  out.reserve(candidates_.size());
  for (const chain::TxId& id : candidates_) {
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
