// Data-plane hot-path timing: the receiver's mempool filter pass and the
// IBLT build/subtract/decode pipeline, at mempool scales m ∈ {10k, 100k, 1M}.
//
// Two Bloom variants per scale:
//   seed scalar  — a faithful replica of the seed implementation (per-item
//                  probe_positions with hardware `%`, one query at a time),
//                  embedded here so the baseline can't drift;
//   batch        — bloom::contains_all, the scan the receiver runs (a loop
//                  over BloomFilter::contains).
// And two IBLT builds: seed-replica scalar insert (per-probe seed mix and
// hardware `%`) and the library's insert_all, plus subtract and decode of a
// realistic difference.
//
// Four more sections:
//   kernels     — the SHA-256 compress timed on the portable body and on the
//                 best body this CPU runs over 1 MiB, reported as bytes/s +
//                 speedup;
//   merkle      — chain::merkle_root over a block's 2,000 ids on the portable
//                 SHA-256 body and on the best one, swapped in through
//                 util::set_sha256_compress, with a root cross-check;
//   served_iblt — the IBLT at the size a relay builds: 2,000 keys into 80
//                 and 240 cells with insert_all, then subtract and decode of
//                 a 30-key difference;
//   served_rateless — the coded-symbol stream at sync_rateless's size: a
//                 2,400-item encoder drawing 427 symbols, and a decoder with
//                 2,300 local items consuming them until the 100 host-only
//                 items decode, each against a seed replica of the
//                 binary-heap schedule it replaced, symbol by symbol.
//
// Every variant's results are cross-checked (hit counts per variant, cell
// bytes across build paths, compress outputs across bodies, coded symbols
// and decoder recoveries against the heap replica, decoded differences) and
// the process exits nonzero on any divergence, so CI smoke runs double as a
// parity gate.
// Writes BENCH_hotpath.json (overwritten each run); GRAPHENE_FAST=1 drops
// the 1M scale for smoke runs.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "bloom/bloom_math.hpp"
#include "chain/merkle.hpp"
#include "chain/transaction.hpp"
#include "iblt/coded_symbol.hpp"
#include "iblt/iblt.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace {

using namespace graphene;

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) / 1e6;
}

/// Best-of-N wall time for `fn` (returns a checksum to keep work observable).
template <typename Fn>
double best_ms(int reps, std::uint64_t* checksum, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t start = obs::monotonic_ns();
    *checksum = fn();
    const double ms = ms_since(start);
    if (ms < best) best = ms;
  }
  return best;
}

// --- Seed-replica scalar Bloom filter -------------------------------------
// The exact pre-optimization inner loop: enhanced double hashing over the
// digest words with three hardware modulos per query plus one per extra
// probe, scattered single-bit loads, no tiling, no prefetch.
struct SeedBloom {
  std::uint64_t n_bits = 0;
  std::uint32_t k = 0;
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> bits;

  SeedBloom(std::uint64_t items, double fpr, std::uint64_t s) : seed(s) {
    n_bits = bloom::optimal_bits(items, fpr);
    k = bloom::optimal_hash_count(n_bits, items == 0 ? 1 : items);
    bits.assign((n_bits + 63) / 64, 0);
  }

  // The seed's util::split_digest_words was an out-of-line byte loop;
  // keep that exact cost in the baseline.
  static std::array<std::uint64_t, 4> split_bytewise(util::ByteView digest) {
    std::array<std::uint64_t, 4> words{};
    const std::size_t n = digest.size() < 32 ? digest.size() : 32;
    for (std::size_t i = 0; i < n; ++i) {
      words[i / 8] |= static_cast<std::uint64_t>(digest[i]) << (8 * (i % 8));
    }
    return words;
  }

  void probe(util::ByteView id, std::uint64_t* out) const {
    const auto words = split_bytewise(id);
    std::uint64_t x = (words[0] ^ util::mix64(seed)) % n_bits;
    std::uint64_t y = (words[1] ^ words[2]) % n_bits;
    for (std::uint32_t i = 0; i < k; ++i) {
      out[i] = x;
      x = (x + y) % n_bits;
      y = (y + i + 1) % n_bits;
    }
  }

  void insert(util::ByteView id) {
    std::uint64_t pos[64];
    probe(id, pos);
    for (std::uint32_t i = 0; i < k; ++i) bits[pos[i] / 64] |= 1ULL << (pos[i] % 64);
  }

  [[nodiscard]] bool contains(util::ByteView id) const {
    std::uint64_t pos[64];
    probe(id, pos);
    for (std::uint32_t i = 0; i < k; ++i) {
      if ((bits[pos[i] / 64] & (1ULL << (pos[i] % 64))) == 0) return false;
    }
    return true;
  }
};

// --- Seed-replica scalar IBLT insert --------------------------------------
// Per-probe `mix64(seed + C·(i+1))` recomputation and a hardware `% stride`,
// exactly as the pre-batch Iblt::update computed positions.
struct SeedIblt {
  /// The seed's cell layout: count first, so padding holes inflate it to 24
  /// bytes — part of what the packed library layout buys back.
  struct Cell {
    std::int32_t count = 0;
    std::uint64_t key_sum = 0;
    std::uint32_t check_sum = 0;
  };

  std::uint32_t k;
  std::uint64_t seed;
  std::vector<Cell> cells;

  SeedIblt(std::uint32_t k_in, std::uint64_t cell_count, std::uint64_t s)
      : k(k_in), seed(s), cells(((cell_count + k_in - 1) / k_in) * k_in) {}

  void insert(std::uint64_t key) {
    const std::uint64_t stride = cells.size() / k;
    const auto check =
        static_cast<std::uint32_t>(util::mix64(key ^ 0xc0ffee3141592653ULL ^ seed));
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint64_t h =
          util::mix64(key ^ util::mix64(seed + 0x9e3779b97f4a7c15ULL * (i + 1)));
      Cell& cell = cells[static_cast<std::uint64_t>(i) * stride + h % stride];
      cell.count = static_cast<std::int32_t>(static_cast<std::uint32_t>(cell.count) + 1u);
      cell.key_sum ^= key;
      cell.check_sum ^= check;
    }
  }
};

std::vector<chain::TxId> random_ids(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<chain::TxId> ids(count);
  for (chain::TxId& id : ids) {
    for (int w = 0; w < 4; ++w) {
      const std::uint64_t v = rng.next();
      for (int b = 0; b < 8; ++b) {
        id[static_cast<std::size_t>(8 * w + b)] = static_cast<std::uint8_t>(v >> (8 * b));
      }
    }
  }
  return ids;
}

bool g_parity_ok = true;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("  PARITY DIVERGENCE: %s\n", what);
    g_parity_ok = false;
  }
}

struct ScaleResult {
  std::uint64_t m = 0, n = 0;
  double filter_seed_ms = 0, filter_batch_ms = 0;
  double iblt_seed_ms = 0, iblt_batch_ms = 0;
  double subtract_ms = 0, decode_ms = 0;
};

ScaleResult run_scale(std::uint64_t m, int reps) {
  ScaleResult res;
  res.m = m;
  res.n = m / 10;
  const std::uint64_t salt = 0xb10cf11e;
  const double fpr = 0.02;

  const std::vector<chain::TxId> block = random_ids(res.n, 0xb10c ^ m);
  const std::vector<chain::TxId> mempool = random_ids(m, 0x3e37 ^ m);
  std::vector<util::ByteView> views;
  views.reserve(mempool.size());
  for (const chain::TxId& id : mempool) views.emplace_back(id);

  // --- Mempool filter pass ------------------------------------------------
  SeedBloom seed_filter(res.n, fpr, salt);
  bloom::BloomFilter lib_filter(res.n, fpr, salt);
  for (const chain::TxId& id : block) {
    seed_filter.insert(util::ByteView(id));
    lib_filter.insert(util::ByteView(id));
  }
  check(seed_filter.n_bits == lib_filter.bit_count() &&
            seed_filter.k == lib_filter.hash_count(),
        "seed replica and library sized differently");

  std::uint64_t hits_seed = 0, hits_batch = 0;
  res.filter_seed_ms = best_ms(reps, &hits_seed, [&] {
    std::uint64_t hits = 0;
    for (const chain::TxId& id : mempool) hits += seed_filter.contains(util::ByteView(id)) ? 1 : 0;
    return hits;
  });
  std::vector<std::uint8_t> out(m, 0);
  res.filter_batch_ms = best_ms(reps, &hits_batch, [&] {
    bloom::contains_all(lib_filter, views.data(), views.size(), out.data());
    std::uint64_t hits = 0;
    for (const std::uint8_t b : out) hits += b;
    return hits;
  });
  check(hits_seed == hits_batch, "contains_all diverged from seed replica");

  // --- IBLT build / subtract / decode ------------------------------------
  // Tables are sized to the full mempool, not the block, so at m = 1M the
  // cell array outgrows the caches. No library path builds such a table with
  // insert_all: the engine's I and J hold about 80 cells (see
  // run_served_iblt_bench), and the difference-digest baseline, the strata
  // estimator and mempool sync call insert().
  const std::uint64_t items = m;
  const std::uint64_t cell_count = items / 2 + 8;
  std::vector<std::uint64_t> sids_a(items), sids_b(items);
  util::Rng sid_rng(0x51d ^ m);
  for (std::uint64_t i = 0; i < items; ++i) sids_a[i] = sid_rng.next();
  // b = a with the last 30 keys swapped out — a realistic small difference.
  sids_b = sids_a;
  const std::uint64_t delta = items < 30 ? items : 30;
  for (std::uint64_t i = 0; i < delta; ++i) sids_b[items - 1 - i] = sid_rng.next();

  std::uint64_t sink = 0;
  res.iblt_seed_ms = best_ms(reps, &sink, [&] {
    SeedIblt t(4, cell_count, salt);
    for (const std::uint64_t key : sids_a) t.insert(key);
    return static_cast<std::uint64_t>(t.cells[0].key_sum);
  });
  iblt::Iblt batch_table(iblt::IbltParams{4, cell_count}, salt);
  res.iblt_batch_ms = best_ms(reps, &sink, [&] {
    iblt::Iblt t(iblt::IbltParams{4, cell_count}, salt);
    t.insert_all(sids_a);
    batch_table = t;
    return static_cast<std::uint64_t>(t.cells_for_test()[0].key_sum);
  });
  {
    SeedIblt seed_table(4, cell_count, salt);
    for (const std::uint64_t key : sids_a) seed_table.insert(key);
    const auto& lib_cells = batch_table.cells_for_test();
    bool same = lib_cells.size() == seed_table.cells.size();
    for (std::size_t i = 0; same && i < lib_cells.size(); ++i) {
      same = lib_cells[i].count == seed_table.cells[i].count &&
             lib_cells[i].key_sum == seed_table.cells[i].key_sum &&
             lib_cells[i].check_sum == seed_table.cells[i].check_sum;
    }
    check(same, "insert_all cells diverged from seed replica");
  }

  iblt::Iblt other(iblt::IbltParams{4, cell_count}, salt);
  other.insert_all(sids_b);
  iblt::Iblt diff(iblt::IbltParams{4, cell_count}, salt);
  res.subtract_ms = best_ms(reps, &sink, [&] {
    diff = batch_table.subtract(other);
    return static_cast<std::uint64_t>(diff.cells_for_test()[0].key_sum);
  });
  res.decode_ms = best_ms(reps, &sink, [&] {
    const iblt::DecodeResult dec = diff.decode();
    check(dec.success && dec.positives.size() == delta && dec.negatives.size() == delta,
          "difference failed to decode");
    return dec.peel_iterations;
  });
  return res;
}

// --- SHA-256 compress on each body -------------------------------------------

/// "portable" or "sha-ni": sha256_compress_best() is one of the two.
const char* body_name(util::Sha256Compress body) {
  return body == &util::sha256_compress_portable ? "portable" : "sha-ni";
}

/// The body util::Sha256 runs now; the hook swaps it out and straight back.
util::Sha256Compress active_body() {
  const util::Sha256Compress active = util::set_sha256_compress(&util::sha256_compress_portable);
  util::set_sha256_compress(active);
  return active;
}

struct KernelResult {
  std::string kernel;   ///< e.g. "sha256_compress"
  std::string variant;  ///< the body: "portable" or "sha-ni"
  double ms = 0;
  double bytes_per_sec = 0;
  double speedup = 1.0;  ///< this variant's throughput over portable
};

/// Times one kernel once per body over the same inputs and cross-checks the
/// outputs; appends a KernelResult per body (portable first).
template <typename Fn>
void bench_kernel(std::vector<KernelResult>& out, const char* name,
                  double bytes_per_pass, int reps, Fn&& run_variant) {
  const util::Sha256Compress best = util::sha256_compress_best();
  double portable_ms = 0;
  for (const util::Sha256Compress body : {&util::sha256_compress_portable, best}) {
    std::uint64_t sink = 0;
    KernelResult r;
    r.kernel = name;
    r.variant = body_name(body);
    r.ms = best_ms(reps, &sink, [&] { return run_variant(body); });
    r.bytes_per_sec = bytes_per_pass / (r.ms / 1e3);
    if (body == &util::sha256_compress_portable) portable_ms = r.ms;
    r.speedup = portable_ms / r.ms;
    out.push_back(r);
    // No SHA extensions on this host: the portable row stands alone.
    if (best == &util::sha256_compress_portable) break;
  }
}

std::vector<KernelResult> run_kernel_benches(int reps) {
  std::vector<KernelResult> out;
  util::Rng rng(0x51d4be7c);

  // SHA-256 compress: 1 MiB (16,384 blocks) per call, the state chained
  // across passes, so every block goes through the multi-block body.
  const std::size_t n = 1u << 20;
  const int passes = 4;
  std::vector<std::uint8_t> msg(n);
  rng.fill(msg);
  std::optional<std::array<std::uint32_t, 8>> sha_portable;
  bench_kernel(out, "sha256_compress", static_cast<double>(n) * passes, reps,
               [&](util::Sha256Compress compress) {
                 std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                                       0xa54ff53a, 0x510e527f, 0x9b05688c,
                                                       0x1f83d9ab, 0x5be0cd19};
                 for (int p = 0; p < passes; ++p) {
                   compress(state.data(), msg.data(), n / 64);
                 }
                 if (!sha_portable) sha_portable = state;
                 check(state == *sha_portable, "sha256_compress output diverged");
                 return static_cast<std::uint64_t>(state[0]);
               });
  return out;
}

// --- Merkle root on each SHA-256 body ----------------------------------------

struct MerkleResult {
  std::size_t leaves = 0;
  std::string variant;  ///< the best body: "sha-ni" or "portable"
  double portable_ms = 0;
  double active_ms = 0;
  double speedup = 1.0;
};

/// merkle_root over one block's worth of ids (relay_block's n), per root.
MerkleResult run_merkle_bench(int reps) {
  MerkleResult res;
  res.leaves = 2000;
  res.variant = body_name(util::sha256_compress_best());
  const std::vector<chain::TxId> ids = random_ids(res.leaves, 0x3e1c1e);
  const int roots_per_rep = 16;
  chain::TxId roots[2] = {};
  double ms[2] = {};
  const util::Sha256Compress bodies[2] = {&util::sha256_compress_portable,
                                          util::sha256_compress_best()};
  const util::Sha256Compress original = util::set_sha256_compress(bodies[0]);
  for (int v = 0; v < 2; ++v) {
    util::set_sha256_compress(bodies[v]);
    std::uint64_t sink = 0;
    ms[v] = best_ms(reps, &sink, [&] {
              for (int i = 0; i < roots_per_rep; ++i) roots[v] = chain::merkle_root(ids);
              return static_cast<std::uint64_t>(roots[v][0]);
            }) /
            roots_per_rep;
  }
  util::set_sha256_compress(original);
  check(roots[0] == roots[1], "merkle_root diverged between SHA-256 bodies");
  res.portable_ms = ms[0];
  res.active_ms = ms[1];
  res.speedup = res.portable_ms / res.active_ms;
  return res;
}

// --- The IBLT at the size a relay builds ------------------------------------

struct ServedIbltResult {
  std::uint64_t cells = 0;
  double build_us = 0;     ///< a fresh table plus insert_all of every key
  double subtract_us = 0;  ///< mine.subtract(peer's)
  double decode_us = 0;    ///< peeling the difference
};

constexpr std::size_t kServedKeys = 2000;
constexpr std::size_t kServedDifference = 30;

/// relay_block's I and J hold a block's 2,000 short IDs in about 80 cells
/// (perfbench's iblt.cells); 240 cells gives the same keys three times the
/// room. The peer's table lacks the last 30 keys, so the difference decodes
/// to 30 positives. Per-operation times, so a future fast path has a
/// caller-size number to beat.
std::vector<ServedIbltResult> run_served_iblt_bench(int reps) {
  const std::uint64_t salt = 0x5e7ed1b1;
  std::vector<std::uint64_t> keys(kServedKeys);
  util::Rng rng(salt);
  for (std::uint64_t& key : keys) key = rng.next();
  const std::span<const std::uint64_t> peer_keys =
      std::span(keys).first(kServedKeys - kServedDifference);
  const std::span<const std::uint64_t> missing_keys = std::span(keys).last(kServedDifference);
  std::vector<std::uint64_t> missing(missing_keys.begin(), missing_keys.end());
  std::sort(missing.begin(), missing.end());
  const int ops_per_rep = 1024;
  const auto per_op_us = [&](double ms) { return ms * 1e3 / ops_per_rep; };

  std::vector<ServedIbltResult> out;
  for (const std::uint64_t cells : {std::uint64_t{80}, std::uint64_t{240}}) {
    const iblt::IbltParams params{4, cells};
    ServedIbltResult r;
    r.cells = cells;
    iblt::Iblt mine(params, salt);
    std::uint64_t sink = 0;
    r.build_us = per_op_us(best_ms(reps, &sink, [&] {
      for (int i = 0; i < ops_per_rep; ++i) {
        mine = iblt::Iblt(params, salt);
        mine.insert_all(keys);
      }
      return mine.cells_for_test()[0].key_sum;
    }));
    iblt::Iblt peer(params, salt);
    peer.insert_all(peer_keys);
    iblt::Iblt diff;
    r.subtract_us = per_op_us(best_ms(reps, &sink, [&] {
      for (int i = 0; i < ops_per_rep; ++i) diff = mine.subtract(peer);
      return diff.cells_for_test()[0].key_sum;
    }));
    iblt::DecodeResult dec;
    r.decode_us = per_op_us(best_ms(reps, &sink, [&] {
      for (int i = 0; i < ops_per_rep; ++i) dec = diff.decode();
      return dec.peel_iterations;
    }));
    std::sort(dec.positives.begin(), dec.positives.end());
    check(dec.success && dec.negatives.empty() && dec.positives == missing,
          "served-size IBLT difference failed to decode");
    out.push_back(r);
  }
  return out;
}

// --- Rateless coded symbols at the size the daemon serves --------------------
// Seed replicas of the binary-heap schedule the coded-symbol stream ran on
// before the bucket queue: one (next index, id) min-heap for the encoder and
// three for the decoder (local items, recovered remote-only items, recovered
// local-only items), with every cell update tracked for zero/nonzero as it
// lands. Same mapper, checksums, peel order, work budget and double-peel
// defense as the library, so both produce the same symbols and recoveries.

using HeapEntry = std::pair<std::uint64_t, std::uint32_t>;  ///< (next index, id)
using MinHeap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

struct SeedTracked {
  iblt::Digest32 digest;
  std::uint64_t check;
  iblt::IndexMapper mapper;
};

SeedTracked seed_tracked(const iblt::Digest32& d, std::uint64_t salt) {
  return {d, iblt::coded_symbol_check(d, salt),
          iblt::IndexMapper(iblt::coded_symbol_map_seed(d, salt))};
}

struct SeedRatelessEncoder {
  std::uint64_t salt;
  std::vector<SeedTracked> sources;
  MinHeap heap;
  std::uint64_t next = 0;

  explicit SeedRatelessEncoder(std::uint64_t s) : salt(s) {}

  void add_item(const iblt::Digest32& d) {
    heap.emplace(0, static_cast<std::uint32_t>(sources.size()));
    sources.push_back(seed_tracked(d, salt));
  }

  iblt::CodedSymbol next_symbol() {
    iblt::CodedSymbol out;
    while (!heap.empty() && heap.top().first == next) {
      const std::uint32_t id = heap.top().second;
      heap.pop();
      SeedTracked& src = sources[id];
      out.apply(src.digest, src.check, +1);
      heap.emplace(src.mapper.next(), id);
    }
    ++next;
    return out;
  }
};

struct SeedRatelessDecoder {
  struct Window {
    std::vector<SeedTracked> items;
    MinHeap heap;
    void add(SeedTracked t) {
      heap.emplace(t.mapper.current(), static_cast<std::uint32_t>(items.size()));
      items.push_back(t);
    }
  };

  std::uint64_t salt;
  std::vector<iblt::CodedSymbol> cells;
  Window local, rec_pos, rec_neg;
  std::vector<std::uint64_t> worklist;
  std::vector<iblt::Digest32> positives, negatives;
  std::unordered_set<std::uint64_t> peeled;
  std::uint64_t received = 0, nonzero = 0, ops = 0;
  bool malformed = false;

  explicit SeedRatelessDecoder(std::uint64_t s) : salt(s) {}

  [[nodiscard]] bool decoded() const { return received > 0 && nonzero == 0 && !malformed; }

  void add_local(const iblt::Digest32& d) { local.add(seed_tracked(d, salt)); }

  void add_symbol(const iblt::CodedSymbol& symbol) {
    if (malformed) return;
    const std::uint64_t index = received++;
    cells.push_back(symbol);
    if (!symbol.is_zero()) ++nonzero;
    apply_window(local, index, -1);
    apply_window(rec_pos, index, -1);
    apply_window(rec_neg, index, +1);
    enqueue_if_candidate(index);
    peel();
    if (over_budget()) malformed = true;
  }

  void apply_window(Window& w, std::uint64_t index, std::int64_t dir) {
    while (!w.heap.empty() && w.heap.top().first == index) {
      const std::uint32_t id = w.heap.top().second;
      w.heap.pop();
      SeedTracked& item = w.items[id];
      touch(index, item.digest, item.check, dir);
      w.heap.emplace(item.mapper.next(), id);
    }
  }

  void touch(std::uint64_t index, const iblt::Digest32& d, std::uint64_t check,
             std::int64_t dir) {
    iblt::CodedSymbol& cell = cells[index];
    const bool was_zero = cell.is_zero();
    cell.apply(d, check, dir);
    const bool now_zero = cell.is_zero();
    if (was_zero && !now_zero) ++nonzero;
    if (!was_zero && now_zero) --nonzero;
    ++ops;
  }

  void enqueue_if_candidate(std::uint64_t index) {
    if (cells[index].count == 1 || cells[index].count == -1) worklist.push_back(index);
  }

  void peel() {
    while (!worklist.empty() && !malformed) {
      const std::uint64_t index = worklist.back();
      worklist.pop_back();
      const iblt::CodedSymbol cell = cells[index];
      if (cell.count != 1 && cell.count != -1) continue;
      if (cell.check != iblt::coded_symbol_check(cell.sum, salt)) continue;
      const std::int64_t dir = cell.count;
      // The library's peel key: the checksum hash mixed with the direction.
      const std::uint64_t key =
          util::mix64(cell.check ^ (dir > 0 ? 0x5bf03635aULL : 0xa9e4f1c2dULL));
      if (!peeled.insert(key).second) {
        malformed = true;
        return;
      }
      SeedTracked item = seed_tracked(cell.sum, salt);
      for (std::uint64_t at = item.mapper.current(); at < received; at = item.mapper.next()) {
        touch(at, item.digest, item.check, -dir);
        enqueue_if_candidate(at);
        if (over_budget()) {
          malformed = true;
          return;
        }
      }
      (dir > 0 ? rec_pos : rec_neg).add(item);
      (dir > 0 ? positives : negatives).push_back(item.digest);
    }
  }

  [[nodiscard]] bool over_budget() const {
    const std::uint64_t tracked =
        local.items.size() + rec_pos.items.size() + rec_neg.items.size() + 1;
    const std::uint64_t log_m = static_cast<std::uint64_t>(std::bit_width(received + 1)) + 4;
    return ops > 4096 + 16 * received + 32 * tracked * log_m;
  }
};

struct ServedRatelessResult {
  std::uint64_t consumed = 0;   ///< symbols the decoder took to decode
  double encode_seed_us = 0;    ///< seed replica: add every item, draw the symbols
  double encode_us = 0;         ///< RatelessEncoder, the same work
  double decode_seed_us = 0;    ///< seed replica: add the local set, consume to decoded
  double decode_us = 0;         ///< RatelessDecoder, the same work
  std::uint64_t update_ops = 0;  ///< the decoder's cell updates
};

constexpr std::size_t kRatelessHostItems = 2400;
constexpr std::size_t kRatelessSymbols = 427;
constexpr std::size_t kRatelessHostOnly = 100;

/// sync_rateless's daemon set is 2,400 digests, and a traced session sends
/// about 427 symbols; the decoder holds a 2,300-item local set that lacks
/// 100 of the host's items. Per-operation times, fresh state each operation,
/// as a session builds them.
ServedRatelessResult run_served_rateless_bench(int reps) {
  const std::uint64_t salt = 0x2a7e1e55;
  util::Rng rng(salt);
  std::vector<iblt::Digest32> host(kRatelessHostItems);
  for (iblt::Digest32& d : host) {
    for (std::size_t i = 0; i < d.size(); i += 8) {
      const std::uint64_t w = rng.next();
      std::memcpy(&d[i], &w, 8);
    }
  }
  const std::span<const iblt::Digest32> local =
      std::span(host).first(kRatelessHostItems - kRatelessHostOnly);
  const int ops_per_rep = 32;
  const auto per_op_us = [&](double ms) { return ms * 1e3 / ops_per_rep; };

  ServedRatelessResult r;
  std::uint64_t sink = 0;
  std::vector<iblt::CodedSymbol> lib_stream(kRatelessSymbols);
  std::vector<iblt::CodedSymbol> seed_stream(kRatelessSymbols);
  r.encode_seed_us = per_op_us(best_ms(reps, &sink, [&] {
    for (int op = 0; op < ops_per_rep; ++op) {
      SeedRatelessEncoder enc(salt);
      for (const iblt::Digest32& d : host) enc.add_item(d);
      for (iblt::CodedSymbol& s : seed_stream) s = enc.next_symbol();
    }
    return seed_stream.back().check;
  }));
  r.encode_us = per_op_us(best_ms(reps, &sink, [&] {
    for (int op = 0; op < ops_per_rep; ++op) {
      iblt::RatelessEncoder enc(salt);
      for (const iblt::Digest32& d : host) enc.add_item(d);
      for (iblt::CodedSymbol& s : lib_stream) s = enc.next_symbol();
    }
    return lib_stream.back().check;
  }));
  for (std::size_t i = 0; i < kRatelessSymbols; ++i) {
    const iblt::CodedSymbol& a = lib_stream[i];
    const iblt::CodedSymbol& b = seed_stream[i];
    check(a.sum == b.sum && a.check == b.check && a.count == b.count,
          "rateless symbol diverged from the seed heap replica");
  }

  std::optional<SeedRatelessDecoder> seed_dec;
  r.decode_seed_us = per_op_us(best_ms(reps, &sink, [&] {
    for (int op = 0; op < ops_per_rep; ++op) {
      seed_dec.emplace(salt);
      for (const iblt::Digest32& d : local) seed_dec->add_local(d);
      for (std::size_t i = 0; i < kRatelessSymbols && !seed_dec->decoded(); ++i) {
        seed_dec->add_symbol(lib_stream[i]);
      }
    }
    return seed_dec->ops;
  }));
  std::optional<iblt::RatelessDecoder> dec;
  r.decode_us = per_op_us(best_ms(reps, &sink, [&] {
    for (int op = 0; op < ops_per_rep; ++op) {
      dec.emplace(salt);
      for (const iblt::Digest32& d : local) dec->add_local(d);
      for (std::size_t i = 0; i < kRatelessSymbols && !dec->decoded(); ++i) {
        dec->add_symbol(lib_stream[i]);
      }
    }
    return dec->update_ops();
  }));
  r.consumed = dec->received();
  r.update_ops = dec->update_ops();
  check(dec->decoded() && dec->negatives().empty() &&
            dec->positives().size() == kRatelessHostOnly,
        "served-size rateless difference failed to decode");
  check(seed_dec->decoded() && dec->received() == seed_dec->received &&
            dec->update_ops() == seed_dec->ops && dec->positives() == seed_dec->positives &&
            dec->negatives() == seed_dec->negatives,
        "rateless decoder diverged from the seed heap replica");
  std::vector<iblt::Digest32> recovered = dec->positives();
  std::vector<iblt::Digest32> missing(host.end() - kRatelessHostOnly, host.end());
  std::sort(recovered.begin(), recovered.end());
  std::sort(missing.begin(), missing.end());
  check(recovered == missing, "rateless decoder recovered the wrong items");
  return r;
}

}  // namespace

int main() {
  const char* fast_env = std::getenv("GRAPHENE_FAST");
  const bool fast = fast_env != nullptr && *fast_env == '1';
  const int reps = fast ? 2 : 3;
  std::vector<std::uint64_t> scales = fast
                                          ? std::vector<std::uint64_t>{10'000, 50'000}
                                          : std::vector<std::uint64_t>{10'000, 100'000,
                                                                       1'000'000};
  std::printf("simd: detected %s, active %s\n", body_name(util::sha256_compress_best()),
              body_name(active_body()));
  const std::vector<KernelResult> kernels = run_kernel_benches(reps);
  for (const KernelResult& k : kernels) {
    std::printf("  kernel %-16s %-8s %9.3f ms  %8.2f MB/s  (%.2fx)\n",
                k.kernel.c_str(), k.variant.c_str(), k.ms,
                k.bytes_per_sec / 1e6, k.speedup);
  }
  const MerkleResult merkle = run_merkle_bench(reps);
  std::printf("  merkle_root %zu ids  portable %9.3f ms | %-8s %9.3f ms  (%.2fx)\n",
              merkle.leaves, merkle.portable_ms, merkle.variant.c_str(), merkle.active_ms,
              merkle.speedup);
  const std::vector<ServedIbltResult> served = run_served_iblt_bench(reps);
  for (const ServedIbltResult& r : served) {
    std::printf("  iblt %zu keys -> %3llu cells  build %7.2f us | subtract %6.3f us | "
                "decode %6.2f us (%zu-key difference)\n",
                kServedKeys, static_cast<unsigned long long>(r.cells), r.build_us,
                r.subtract_us, r.decode_us, kServedDifference);
  }
  const ServedRatelessResult rl = run_served_rateless_bench(reps);
  std::printf("  rateless encode %zu items, %zu symbols  seed %8.1f us | lib %8.1f us  "
              "(%.2fx)\n",
              kRatelessHostItems, kRatelessSymbols, rl.encode_seed_us, rl.encode_us,
              rl.encode_seed_us / rl.encode_us);
  std::printf("  rateless decode %zu local, %zu host-only (%llu symbols)  seed %8.1f us | "
              "lib %8.1f us  (%.2fx)\n",
              kRatelessHostItems - kRatelessHostOnly, kRatelessHostOnly,
              static_cast<unsigned long long>(rl.consumed), rl.decode_seed_us, rl.decode_us,
              rl.decode_seed_us / rl.decode_us);

  std::vector<ScaleResult> results;
  for (const std::uint64_t m : scales) {
    std::printf("m = %llu (n = %llu, %d reps, best-of)\n",
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(m / 10), reps);
    const ScaleResult r = run_scale(m, reps);
    std::printf("  filter pass   seed %9.2f ms | batch %9.2f  (%.2fx vs seed)\n",
                r.filter_seed_ms, r.filter_batch_ms, r.filter_seed_ms / r.filter_batch_ms);
    std::printf("  iblt build    seed %9.2f ms | batch %9.2f  (%.2fx vs seed)\n",
                r.iblt_seed_ms, r.iblt_batch_ms, r.iblt_seed_ms / r.iblt_batch_ms);
    std::printf("  iblt subtract      %9.2f ms ; decode %9.3f ms\n", r.subtract_ms,
                r.decode_ms);
    results.push_back(r);
  }

  std::ofstream json("BENCH_hotpath.json");
  obs::json::Writer w;
  w.begin_object();
  w.key("reps");
  w.number(static_cast<std::uint64_t>(reps));
  w.key("fast");
  w.boolean(fast);
  w.key("simd_isa");
  w.string(body_name(util::sha256_compress_best()));
  w.key("kernels");
  w.begin_array();
  for (const KernelResult& k : kernels) {
    w.begin_object();
    w.key("kernel");
    w.string(k.kernel);
    w.key("variant");
    w.string(k.variant);
    w.key("ms");
    w.number(k.ms);
    w.key("bytes_per_sec");
    w.number(k.bytes_per_sec);
    w.key("speedup");
    w.number(k.speedup);
    w.end_object();
  }
  w.end_array();
  w.key("merkle");
  w.begin_object();
  w.key("leaves");
  w.number(static_cast<std::uint64_t>(merkle.leaves));
  w.key("variant");
  w.string(merkle.variant);
  w.key("portable_ms");
  w.number(merkle.portable_ms);
  w.key("active_ms");
  w.number(merkle.active_ms);
  w.key("speedup");
  w.number(merkle.speedup);
  w.end_object();
  w.key("served_iblt");
  w.begin_array();
  for (const ServedIbltResult& r : served) {
    w.begin_object();
    w.key("keys");
    w.number(static_cast<std::uint64_t>(kServedKeys));
    w.key("cells");
    w.number(r.cells);
    w.key("difference");
    w.number(static_cast<std::uint64_t>(kServedDifference));
    w.key("build_us");
    w.number(r.build_us);
    w.key("subtract_us");
    w.number(r.subtract_us);
    w.key("decode_us");
    w.number(r.decode_us);
    w.end_object();
  }
  w.end_array();
  w.key("served_rateless");
  w.begin_object();
  w.key("host_items");
  w.number(static_cast<std::uint64_t>(kRatelessHostItems));
  w.key("symbols");
  w.number(static_cast<std::uint64_t>(kRatelessSymbols));
  w.key("encode_seed_us");
  w.number(rl.encode_seed_us);
  w.key("encode_us");
  w.number(rl.encode_us);
  w.key("encode_speedup_vs_seed");
  w.number(rl.encode_seed_us / rl.encode_us);
  w.key("local_items");
  w.number(static_cast<std::uint64_t>(kRatelessHostItems - kRatelessHostOnly));
  w.key("host_only");
  w.number(static_cast<std::uint64_t>(kRatelessHostOnly));
  w.key("symbols_consumed");
  w.number(rl.consumed);
  w.key("update_ops");
  w.number(rl.update_ops);
  w.key("decode_seed_us");
  w.number(rl.decode_seed_us);
  w.key("decode_us");
  w.number(rl.decode_us);
  w.key("decode_speedup_vs_seed");
  w.number(rl.decode_seed_us / rl.decode_us);
  w.end_object();
  w.key("scales");
  w.begin_array();
  for (const ScaleResult& r : results) {
    w.begin_object();
    w.key("m");
    w.number(r.m);
    w.key("n");
    w.number(r.n);
    w.key("filter_seed_ms");
    w.number(r.filter_seed_ms);
    w.key("filter_batch_ms");
    w.number(r.filter_batch_ms);
    w.key("filter_speedup_vs_seed");
    w.number(r.filter_seed_ms / r.filter_batch_ms);
    w.key("iblt_seed_build_ms");
    w.number(r.iblt_seed_ms);
    w.key("iblt_batch_build_ms");
    w.number(r.iblt_batch_ms);
    w.key("iblt_build_speedup_vs_seed");
    w.number(r.iblt_seed_ms / r.iblt_batch_ms);
    w.key("subtract_ms");
    w.number(r.subtract_ms);
    w.key("decode_ms");
    w.number(r.decode_ms);
    w.end_object();
  }
  w.end_array();
  w.key("parity_ok");
  w.boolean(g_parity_ok);
  w.end_object();
  json << w.str() << '\n';
  std::printf("\nwrote BENCH_hotpath.json — parity %s\n",
              g_parity_ok ? "OK" : "DIVERGED");
  return g_parity_ok ? 0 : 1;
}
