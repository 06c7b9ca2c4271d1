// relay_block: in-process Graphene block relay on one thread (paper §3,
// Figs. 13–17). A fresh Sender and salt per relay; every message crosses
// serialize → frame → FrameReader → deserialize, so the net layer does the
// work a socket peer would cause, minus the socket.
#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>

#include "chain/block.hpp"
#include "chain/mempool.hpp"
#include "graphene/receiver.hpp"
#include "graphene/sender.hpp"
#include "iblt/param_cache.hpp"
#include "net/frame.hpp"
#include "trace.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace graphene;

constexpr const char* kName = "relay_block";
constexpr std::uint64_t kMempoolTxns = 20'000;
constexpr std::uint64_t kBlocks = 64;
constexpr std::uint64_t kBlockTxns = 2'000;
/// Every kMissingEvery-th block lacks kMissingTxns of its txns at the
/// receiver, which sends that quarter of relays through Protocol 2 (+ repair).
constexpr std::uint64_t kMissingEvery = 4;
constexpr std::uint64_t kMissingTxns = 100;
/// Nominal rate that turns --seconds into a fixed relay count (whole cycles
/// of the 64 blocks).
constexpr double kRelaysPerSecond = 100.0;
constexpr std::uint64_t kWarmupRelays = 8;

struct Inputs {
  chain::Mempool mempool;
  std::vector<chain::Block> blocks;
  std::vector<std::vector<chain::TxId>> block_ids;  ///< CTOR order
  std::vector<std::uint64_t> held;                  ///< block txns in the mempool
};

std::unique_ptr<Inputs> make_inputs(std::uint64_t seed) {
  util::Rng rng(derive(seed, kName, "inputs"));
  auto in = std::make_unique<Inputs>();
  std::vector<chain::Transaction> pool;
  pool.reserve(kMempoolTxns);
  while (pool.size() < kMempoolTxns) {
    const chain::Transaction tx = chain::make_random_transaction(rng);
    if (in->mempool.insert(tx)) pool.push_back(tx);
  }
  std::vector<std::uint32_t> order(kMempoolTxns);
  std::iota(order.begin(), order.end(), 0U);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const bool missing = b % kMissingEvery == kMissingEvery - 1;
    const std::uint64_t from_pool = kBlockTxns - (missing ? kMissingTxns : 0);
    std::vector<chain::Transaction> txs;
    txs.reserve(kBlockTxns);
    // Partial Fisher–Yates: a uniform sample of the pool without repeats.
    for (std::uint64_t i = 0; i < from_pool; ++i) {
      const std::uint64_t j = i + rng.below(kMempoolTxns - i);
      std::swap(order[i], order[j]);
      txs.push_back(pool[order[i]]);
    }
    while (txs.size() < kBlockTxns) {
      const chain::Transaction tx = chain::make_random_transaction(rng);
      if (!in->mempool.contains(tx.id)) txs.push_back(tx);
    }
    chain::BlockHeader header;
    for (auto& byte : header.prev_hash) byte = static_cast<std::uint8_t>(rng.next());
    header.time = static_cast<std::uint32_t>(b);
    in->blocks.emplace_back(header, std::move(txs));
    in->block_ids.push_back(in->blocks.back().tx_ids());
    in->held.push_back(from_pool);
  }
  return in;
}

/// What one relay left behind for the traced run's re-executions and counts.
struct RelayTrace {
  core::GrapheneBlockMsg block_msg;
  core::ReceiveOutcome outcome;
  bool protocol2 = false;
  bool pingpong = false;  ///< in Protocol 2; complete_repair() resets the outcome's flag
  bool repair = false;
  std::uint64_t iblt_cells = 0;
  std::vector<util::Bytes> payloads;  ///< every payload framed, for the checksum pass
};

class RelayBench {
 public:
  RelayBench(std::uint64_t seed, std::uint32_t fail_denom)
      : seed_(seed),
        fail_denom_(fail_denom),
        in_(make_inputs(seed)),
        cache_(std::make_unique<iblt::ParamCache>()),
        receiver_(in_->mempool, config()) {}

  /// One relay of block `b` under `salt`; the record's host CPU is thread CPU
  /// inside the Sender calls. With a tracer, spans wrap each public call and
  /// `keep` receives what the re-executions need.
  SessionRecord relay(std::uint64_t b, std::uint64_t salt, std::uint64_t session,
                      Errors& errors, Tracer* t = nullptr, Counters* counters = nullptr,
                      RelayTrace* keep = nullptr) {
    SessionRecord rec;
    rec.cls = b % kMissingEvery == kMissingEvery - 1 ? 1 : 0;
    counters_ = counters;
    keep_ = keep;
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    std::optional<Span> root;
    if (t != nullptr) root.emplace(t, "relay", session);

    std::uint64_t c0 = thread_cpu_ns();
    std::optional<core::Sender> sender;
    {
      const Span s(t, "graphene.sender_init", session);
      sender.emplace(in_->blocks[b], salt, config());
    }
    std::optional<core::EncodeResult> encoded;
    {
      const Span s(t, "graphene.encode", session);
      encoded.emplace(sender->encode(in_->mempool.size()));
    }
    rec.host_cpu_ns += thread_cpu_ns() - c0;

    core::ReceiveSession rs = receiver_.session();
    const core::GrapheneBlockMsg msg =
        carry(net::MessageType::kGrapheneBlock, encoded->msg, rec, t, session);
    core::ReceiveOutcome out;
    {
      const Span s(t, "graphene.receive_block", session);
      out = rs.receive_block(msg);
    }
    rec.round_trips = 1;
    if (keep != nullptr) keep->iblt_cells += msg.iblt_i.cell_count();

    if (out.status == core::ReceiveStatus::kNeedsProtocol2) {
      ++rec.round_trips;
      std::optional<core::GrapheneRequestMsg> req;
      {
        const Span s(t, "graphene.build_request", session);
        req.emplace(rs.build_request());
      }
      const core::GrapheneRequestMsg req_in =
          carry(net::MessageType::kGrapheneRequest, *req, rec, t, session);
      c0 = thread_cpu_ns();
      std::optional<core::GrapheneResponseMsg> resp;
      {
        const Span s(t, "graphene.serve", session);
        resp.emplace(sender->serve(req_in));
      }
      rec.host_cpu_ns += thread_cpu_ns() - c0;
      const core::GrapheneResponseMsg resp_in =
          carry(net::MessageType::kGrapheneResponse, *resp, rec, t, session);
      {
        const Span s(t, "graphene.complete", session);
        out = rs.complete(resp_in);
      }
      if (keep != nullptr) {
        keep->protocol2 = true;
        keep->pingpong = out.used_pingpong;
        keep->iblt_cells += resp_in.iblt_j.cell_count();
      }
    }

    if (out.status == core::ReceiveStatus::kNeedsRepair) {
      ++rec.round_trips;
      std::optional<core::RepairRequestMsg> rep;
      {
        const Span s(t, "graphene.build_repair", session);
        rep.emplace(rs.build_repair());
      }
      const core::RepairRequestMsg rep_in =
          carry(net::MessageType::kGetBlockTxn, *rep, rec, t, session);
      c0 = thread_cpu_ns();
      std::optional<core::RepairResponseMsg> rr;
      {
        const Span s(t, "graphene.serve_repair", session);
        rr.emplace(sender->serve_repair(rep_in));
      }
      rec.host_cpu_ns += thread_cpu_ns() - c0;
      const core::RepairResponseMsg rr_in =
          carry(net::MessageType::kBlockTxn, *rr, rec, t, session);
      {
        const Span s(t, "graphene.complete_repair", session);
        out = rs.complete_repair(rr_in);
      }
      if (keep != nullptr) keep->repair = true;
    }

    if (out.status == core::ReceiveStatus::kDecoded) {
      if (out.merkle_ok && out.block_ids == in_->block_ids[b]) {
        rec.ok = true;
      } else {
        errors.push_back(std::string(kName) + ": relay " + std::to_string(session) +
                         " reported a wrong block as decoded");
      }
    }
    // Any other terminal status is a decode failure inside the protocol's
    // β budget: an honest failure, counted against ok_share.
    root.reset();
    rec.wall_ns = now_ns() - t0;
    rec.cpu_ns = process_cpu_ns() - cpu0;
    if (keep != nullptr) {
      keep->block_msg = msg;
      keep->outcome = std::move(out);
    }
    return rec;
  }

  /// Re-executes the children of receive_block() on the inputs of the relay
  /// just traced: they cannot be reached from outside the library, so they
  /// run again here, after (not inside) the relay's span.
  void reexecute(std::uint64_t b, const RelayTrace& r, std::uint64_t session, Tracer& t,
                 Counters& c, Errors& errors) {
    std::vector<chain::TxId> ids;
    {
      const Span s(&t, "chain.mempool_ids", session);
      ids = in_->mempool.ids();
    }
    std::vector<util::ByteView> views(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      views[i] = util::ByteView(ids[i].data(), ids[i].size());
    }
    std::vector<std::uint8_t> hit(ids.size());
    {
      const Span s(&t, "bloom.scan", session);
      bloom::contains_all(r.block_msg.filter_s, views.data(), views.size(), hit.data());
    }
    std::vector<chain::TxId> candidates;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (hit[i] != 0) candidates.push_back(ids[i]);
    }
    c["bloom.items_scanned"] += ids.size();
    // No false negatives: every held block txn passes, the rest are false.
    c["bloom.false_positives"] += candidates.size() - in_->held[b];

    std::vector<std::uint64_t> sids;
    sids.reserve(candidates.size());
    {
      const Span s(&t, "graphene.short_ids", session);
      const core::ProtocolConfig cfg = config();
      for (const chain::TxId& id : candidates) {
        sids.push_back(core::derive_short_id(id, r.block_msg.shortid_salt, cfg));
      }
    }
    {
      const Span s(&t, "iblt.decode", session);
      iblt::Iblt mine(iblt::IbltParams{r.block_msg.iblt_i.hash_count(),
                                       r.block_msg.iblt_i.cell_count()},
                      r.block_msg.iblt_i.seed());
      mine.insert_all(sids);
      (void)r.block_msg.iblt_i.subtract(mine).decode();
    }
    if (!r.outcome.block_ids.empty()) {
      bool valid = false;
      {
        const Span s(&t, "chain.merkle", session);
        valid = in_->blocks[b].validates(r.outcome.block_ids);
      }
      if (!valid) {
        errors.push_back(std::string(kName) + ": a decoded block failed Merkle validation");
      }
    }
    {
      const Span s(&t, "net.checksum", session);
      for (const util::Bytes& p : r.payloads) (void)net::frame_checksum(util::ByteView(p));
    }
  }

  /// Relays the first kWarmupRelays blocks (both classes) to fill the
  /// ParamCache and the allocator before anything is timed.
  void warm_up(Errors& errors) {
    for (std::uint64_t i = 0; i < kWarmupRelays; ++i) {
      (void)relay(i % kBlocks, derive(seed_, kName, "warmup_salt", i), i, errors);
    }
  }

 private:
  [[nodiscard]] core::ProtocolConfig config() const {
    core::ProtocolConfig cfg;
    cfg.fail_denom = fail_denom_;
    cfg.param_cache = cache_.get();
    return cfg;
  }

  /// serialize → encode_frame_into → FrameReader → deserialize.
  template <typename Msg>
  Msg carry(net::MessageType type, const Msg& msg, SessionRecord& rec, Tracer* t,
            std::uint64_t session) {
    net::Message m;
    m.type = type;
    {
      const Span s(t, "net.serialize", session);
      m.payload = msg.serialize();
    }
    frame_.clear();
    {
      const Span s(t, "net.frame_encode", session);
      net::encode_frame_into(frame_, m);
    }
    rec.wire_bytes += frame_.size();
    if (counters_ != nullptr) add_frame_bytes(*counters_, m);
    std::optional<net::Message> got;
    bool extra = false;
    {
      const Span s(t, "net.frame_decode", session);
      reader_.absorb(util::ByteView(frame_));
      got = reader_.next();
      // Reading until the buffer runs dry, as a socket owner does, is what
      // lets the reader reclaim the consumed frame.
      extra = reader_.next().has_value();
    }
    if (!got || got->type != type || extra) {
      throw std::runtime_error("perfbench: frame did not round-trip");
    }
    std::optional<Msg> parsed;
    {
      const Span s(t, "net.parse", session);
      util::ByteReader r{util::ByteView(got->payload)};
      parsed.emplace(Msg::deserialize(r));
      if (!r.done()) throw std::runtime_error("perfbench: trailing payload bytes");
    }
    if (keep_ != nullptr) keep_->payloads.push_back(std::move(m.payload));
    return std::move(*parsed);
  }

  std::uint64_t seed_;
  std::uint32_t fail_denom_;
  std::unique_ptr<Inputs> in_;
  std::unique_ptr<iblt::ParamCache> cache_;
  core::Receiver receiver_;
  util::Bytes frame_;
  net::FrameReader reader_;
  Counters* counters_ = nullptr;
  RelayTrace* keep_ = nullptr;
};

void run_e2e(const Options& opts, graphene::obs::json::Writer& w, Errors& errors) {
  E2eRun run;
  const std::uint64_t n = pass_sessions(opts, kRelaysPerSecond, kBlocks);
  run.sessions.reserve(kPasses * n);
  std::uint64_t i = 0;  // session index over all passes: every relay its own salt
  for (std::uint64_t pass = 0; pass < kPasses; ++pass) {
    std::unique_ptr<RelayBench> bench;
    for (std::uint64_t rep = 0; rep < kSetupsPerPass; ++rep) {
      bench.reset();
      const std::uint64_t t0 = run.setup_ns.empty() ? process_start_ns() : now_ns();
      bench = std::make_unique<RelayBench>(opts.seed, opts.fail_denom);
      bench->warm_up(errors);
      run.setup_ns.push_back(now_ns() - t0);
    }
    for (std::uint64_t k = 0; k < n; ++k, ++i) {
      SessionRecord rec =
          bench->relay(i % kBlocks, derive(opts.seed, kName, "salt", i), i, errors);
      rec.pass = static_cast<std::uint32_t>(pass);
      run.sessions.push_back(rec);
    }
  }
  w.key("e2e");
  write_e2e(w, run);
}

void run_traced(const Options& opts, graphene::obs::json::Writer& w, Errors& errors) {
  RelayBench bench(opts.seed, opts.fail_denom);
  bench.warm_up(errors);
  const std::uint64_t n = pass_sessions(opts, kRelaysPerSecond, kBlocks);
  Tracer tracer;
  Counters counters;
  std::vector<std::uint64_t> untraced_ns;
  untraced_ns.reserve(n);
  // Untraced and traced relays of the same block and salt alternate, so
  // machine drift hits both sides of trace.overhead_share alike.
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t b = i % kBlocks;
    const std::uint64_t salt = derive(opts.seed, kName, "salt", i);
    untraced_ns.push_back(bench.relay(b, salt, i, errors).wall_ns);
    RelayTrace keep;
    const SessionRecord rec = bench.relay(b, salt, i, errors, &tracer, &counters, &keep);
    counters["sessions"] += 1;
    counters["ok"] += rec.ok ? 1 : 0;
    counters["wire_bytes"] += rec.wire_bytes;
    counters["graphene.protocol2"] += keep.protocol2 ? 1 : 0;
    counters["graphene.repair"] += keep.repair ? 1 : 0;
    counters["graphene.pingpong"] += keep.pingpong ? 1 : 0;
    counters["iblt.cells"] += keep.iblt_cells;
    bench.reexecute(b, keep, i, tracer, counters, errors);
  }
  write_trace(w, n, "relay", untraced_ns, {}, counters, tracer);
}

}  // namespace

void run_relay_block(const Options& opts, graphene::obs::json::Writer& w, Errors& errors) {
  if (opts.trace) {
    run_traced(opts, w, errors);
  } else {
    run_e2e(opts, w, errors);
  }
}

}  // namespace perfbench
