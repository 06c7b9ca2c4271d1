#include "graphene/sender.hpp"

#include <algorithm>
#include <cmath>

#include "bloom/bloom_math.hpp"
#include "util/arena.hpp"
#include "graphene/bounds.hpp"
#include "graphene/errors.hpp"
#include "iblt/param_cache.hpp"
#include "iblt/param_table.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"
#include "util/wire_limits.hpp"

namespace graphene::core {

std::uint64_t derive_short_id(const chain::TxId& id, std::uint64_t salt,
                              const ProtocolConfig& cfg) noexcept {
  if (cfg.keyed_short_ids) {
    return chain::short_id_keyed(util::SipHashKey{salt, salt ^ 0x717fb1a5c0ffee00ULL}, id);
  }
  return chain::short_id(id);
}

Sender::Sender(chain::Block block, std::uint64_t salt, ProtocolConfig cfg)
    : block_(std::move(block)), salt_(salt), cfg_(cfg) {
  short_ids_.reserve(block_.tx_count());
  for (const chain::Transaction& tx : block_.transactions()) {
    const std::uint64_t sid = derive_short_id(tx.id, salt_, cfg_);
    short_ids_.push_back(sid);
    by_short_id_.emplace(sid, &tx);
  }
}

EncodeResult Sender::encode(std::uint64_t receiver_mempool_count) const {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  const std::uint64_t n = block_.tx_count();
  const std::uint64_t m = std::max(receiver_mempool_count, n);
  EncodeResult out;
  {
    obs::ScopedSpan span(reg, "p1_optimize");
    out.params = optimize_protocol1(n, m, cfg_);
    span.attr("n", n);
    span.attr("m", m);
    span.attr("a", out.params.a);
    span.attr("a_star", out.params.a_star);
    span.attr("fpr_s", out.params.fpr);
    span.attr("bloom_bytes", out.params.bloom_bytes);
    span.attr("iblt_bytes", out.params.iblt_bytes);
  }

  GrapheneBlockMsg& msg = out.msg;
  msg.header = block_.header();
  msg.n = n;
  msg.shortid_salt = salt_;

  // The filter and IBLT builds are independent, so with a pool they run as
  // two concurrent tasks (telemetry is thread-safe). With cfg_.pool null,
  // parallel_for degrades to an in-order loop on the caller, preserving the
  // serial span sequence the telemetry contract tests pin down.
  util::parallel_for(cfg_.pool, 2, [&](std::uint64_t task) {
    if (task == 0) {
      obs::ScopedSpan span(reg, "sfilter_build");
      msg.filter_s = bloom::BloomFilter(n, out.params.fpr, /*seed=*/salt_ ^ 0x5eedf00d,
                                        cfg_.bloom_strategy);
      util::ScratchScope scratch;  // per-thread arena: no heap churn per encode
      const std::span<util::ByteView> ids =
          scratch.span<util::ByteView>(block_.tx_count());
      std::size_t at = 0;
      for (const chain::Transaction& tx : block_.transactions()) {
        ids[at++] = util::ByteView(tx.id.data(), tx.id.size());
      }
      msg.filter_s.insert_batch(ids.data(), ids.size());
      span.attr("items", n);
      span.attr("bits", msg.filter_s.bit_count());
      span.attr("hashes", msg.filter_s.hash_count());
      span.attr("target_fpr", msg.filter_s.target_fpr());
    } else {
      obs::ScopedSpan span(reg, "iblt_build");
      msg.iblt_i = iblt::Iblt(out.params.iblt, /*seed=*/salt_);
      msg.iblt_i.insert_all(short_ids_);
      span.attr("items", short_ids_.size());
      span.attr("cells", msg.iblt_i.cell_count());
      span.attr("k", msg.iblt_i.hash_count());
    }
  });

  if (reg != nullptr) {
    reg->counter("graphene_encode_total").inc();
    reg->histogram("graphene_bloom_s_bytes").observe(msg.filter_s.serialized_size());
    reg->histogram("graphene_iblt_i_bytes").observe(msg.iblt_i.serialized_size());
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgSent;
    e.label = "grblk";
    if (fr->wire_capture()) e.wire = msg.serialize();
    e.attrs = {{"n", static_cast<double>(n)},
               {"m", static_cast<double>(m)},
               {"a", static_cast<double>(out.params.a)},
               {"a_star", static_cast<double>(out.params.a_star)},
               {"fpr_s", out.params.fpr},
               {"bloom_bytes", static_cast<double>(msg.filter_s.serialized_size())},
               {"iblt_cells", static_cast<double>(msg.iblt_i.cell_count())},
               {"iblt_bytes", static_cast<double>(msg.iblt_i.serialized_size())}};
    fr->record(std::move(e));
  }
  return out;
}

GrapheneResponseMsg Sender::serve(const GrapheneRequestMsg& request) const {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  obs::ScopedSpan serve_span(reg, "p2_serve");

  // Belt-and-braces revalidation of the sizing parameters: deserialize caps
  // them on the wire, but serve() is also reachable with an in-memory
  // request, and b + y* sizes the IBLT J allocated below.
  if (request.b > util::wire::kMaxSizingParam ||
      request.y_star > util::wire::kMaxSizingParam ||
      request.b + request.y_star > util::wire::kMaxIbltCells ||
      request.z > util::wire::kMaxWireCollection ||
      !(request.fpr_r > 0.0 && request.fpr_r <= 1.0)) {
    ErrorContext ctx;
    ctx.n = block_.tx_count();
    ctx.z = request.z;
    ctx.y_star = request.y_star;
    ctx.b = request.b;
    if (obs::FlightRecorder* fr = obs::flight(reg)) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kError;
      e.label = "p2_serve";
      e.attrs = {{"n", static_cast<double>(ctx.n)},
                 {"z", static_cast<double>(ctx.z)},
                 {"y_star", static_cast<double>(ctx.y_star)},
                 {"b", static_cast<double>(ctx.b)}};
      fr->record(std::move(e));
    }
    throw ProtocolError("p2_serve", "request sizing parameters out of range", ctx);
  }

  GrapheneResponseMsg resp;
  const std::uint64_t n = block_.tx_count();

  // Step 3: transactions that do not pass R are certainly missing at the
  // receiver; send them in full. The membership pass runs through the
  // chunked batch scan; the partition below stays serial and in block
  // order, so resp.missing's wire bytes match the item-at-a-time loop.
  util::ScratchScope scratch;  // per-thread arena: serve scratch sized by m
  std::span<const chain::Transaction*> passed_buf =
      scratch.span<const chain::Transaction*>(n);
  std::size_t passed_count = 0;
  {
    const std::span<util::ByteView> ids =
        scratch.span<util::ByteView>(block_.tx_count());
    std::size_t at = 0;
    for (const chain::Transaction& tx : block_.transactions()) {
      ids[at++] = util::ByteView(tx.id.data(), tx.id.size());
    }
    const std::span<std::uint8_t> hit = scratch.span<std::uint8_t>(ids.size());
    bloom::contains_all(request.filter_r, ids.data(), ids.size(), hit.data(), cfg_.pool);
    std::size_t i = 0;
    for (const chain::Transaction& tx : block_.transactions()) {
      if (hit[i++] != 0) {
        passed_buf[passed_count++] = &tx;
      } else {
        resp.missing.push_back(tx);
      }
    }
  }
  const std::span<const chain::Transaction* const> passed =
      passed_buf.first(passed_count);

  std::uint64_t j_items = request.b + request.y_star;

  if (request.reversed) {
    obs::ScopedSpan fb_span(reg, "p2_fallback");
    // §3.3.2 m ≈ n path: re-derive the bounds with the roles of block and
    // mempool swapped, and compensate R's false positives with filter F.
    const std::uint64_t z_s = passed.size();
    const std::uint64_t x_s = bound_x_star(z_s, /*m=*/n, /*n=*/request.z,
                                           request.fpr_r, cfg_.beta);
    const std::uint64_t y_s = bound_y_star(/*m=*/n, x_s, request.fpr_r, cfg_.beta);

    // Optimize b for the joint size of F (over z_s items) and J (b + y_s).
    const std::uint64_t denom =
        std::max<std::uint64_t>(1, request.z > x_s ? request.z - x_s : 1);
    std::uint64_t best_b = 1;
    std::size_t best_total = SIZE_MAX;
    for (std::uint64_t b = 1; b <= denom; b = (b < 128 ? b + 1 : b + b / 8)) {
      const double f_f = std::min(1.0, static_cast<double>(b) / static_cast<double>(denom));
      const std::size_t total = bloom::serialized_bytes(z_s, f_f) +
                                iblt::cached_iblt_bytes(cfg_.param_cache, b + y_s, cfg_.fail_denom);
      if (total < best_total) {
        best_total = total;
        best_b = b;
      }
    }

    const double f_f =
        std::min(1.0, static_cast<double>(best_b) / static_cast<double>(denom));
    bloom::BloomFilter filter_f(z_s, f_f, /*seed=*/salt_ ^ 0xfeedface,
                                cfg_.bloom_strategy);
    const std::span<util::ByteView> passed_ids =
        scratch.span<util::ByteView>(passed.size());
    std::size_t at = 0;
    for (const chain::Transaction* tx : passed) {
      passed_ids[at++] = util::ByteView(tx->id.data(), tx->id.size());
    }
    filter_f.insert_batch(passed_ids.data(), passed_ids.size());
    resp.filter_f = std::move(filter_f);
    j_items = best_b + y_s;
    fb_span.attr("z_s", z_s);
    fb_span.attr("x_s", x_s);
    fb_span.attr("y_s", y_s);
    fb_span.attr("b", best_b);
    fb_span.attr("fpr_f", f_f);
  }

  resp.iblt_j = iblt::Iblt(iblt::cached_params(cfg_.param_cache, j_items, cfg_.fail_denom),
                           /*seed=*/salt_ + 1);
  resp.iblt_j.insert_all(short_ids_);

  serve_span.attr("n", n);
  serve_span.attr("z", request.z);
  serve_span.attr("passed", passed.size());
  serve_span.attr("missing", resp.missing.size());
  serve_span.attr("j_items", j_items);
  serve_span.attr("j_cells", resp.iblt_j.cell_count());
  serve_span.attr("reversed", request.reversed ? 1 : 0);
  if (reg != nullptr) {
    reg->counter("graphene_p2_serve_total").inc();
    reg->histogram("graphene_missing_txns").observe(resp.missing.size());
    reg->histogram("graphene_iblt_j_bytes").observe(resp.iblt_j.serialized_size());
  }
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgSent;
    e.label = "grresp";
    if (fr->wire_capture()) e.wire = resp.serialize();
    e.attrs = {{"missing", static_cast<double>(resp.missing.size())},
               {"missing_tx_bytes", static_cast<double>(resp.missing_tx_bytes())},
               {"j_cells", static_cast<double>(resp.iblt_j.cell_count())},
               {"j_bytes", static_cast<double>(resp.iblt_j.serialized_size())},
               {"reversed", request.reversed ? 1.0 : 0.0}};
    fr->record(std::move(e));
  }
  return resp;
}

RepairResponseMsg Sender::serve_repair(const RepairRequestMsg& request) const {
  obs::Registry* reg = obs::enabled(cfg_.obs);
  obs::ScopedSpan span(reg, "repair_serve");
  RepairResponseMsg resp;
  resp.txns.reserve(request.short_ids.size());
  for (const std::uint64_t sid : request.short_ids) {
    const auto it = by_short_id_.find(sid);
    if (it != by_short_id_.end()) resp.txns.push_back(*it->second);
  }
  span.attr("requested", request.short_ids.size());
  span.attr("served", resp.txns.size());
  if (obs::FlightRecorder* fr = obs::flight(reg)) {
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kMsgSent;
    e.label = "blocktxn";
    if (fr->wire_capture()) e.wire = resp.serialize();
    e.attrs = {{"requested", static_cast<double>(request.short_ids.size())},
               {"served", static_cast<double>(resp.txns.size())}};
    fr->record(std::move(e));
  }
  return resp;
}

}  // namespace graphene::core
