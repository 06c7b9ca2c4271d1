// Structure-aware round-trip harness: the fuzz input is a parameter stream
// from which real messages are *built* (not parsed), then the serializer and
// deserializer are checked against each other:
//
//     deserialize(serialize(x)) == x      (compared via re-serialization)
//
// This direction catches encoder/decoder disagreements that byte-level
// harnesses cannot reach, because it explores the space of valid messages
// instead of the space of valid prefixes.
#include <cstdlib>

#include "chain/transaction.hpp"
#include "graphene/messages.hpp"
#include "harness.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace {

using namespace graphene;

/// Draws structured values from the fuzz input, falling back to a PRNG
/// keyed by the input once the bytes run out.
class ParamSource {
 public:
  ParamSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size), rng_(util::hash64(util::ByteView(data, size))) {}

  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | next_byte();
    return v;
  }
  std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : u64() % bound; }
  double unit_fpr() {
    // (0, 1]: degenerate and tiny FPRs included.
    return 1.0 / static_cast<double>(1 + below(1u << 20));
  }

 private:
  std::uint8_t next_byte() {
    if (pos_ < size_) return data_[pos_++];
    return static_cast<std::uint8_t>(rng_.next());
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  util::Rng rng_;
};

template <typename Msg>
void check_roundtrip(const Msg& msg) {
  const util::Bytes wire = msg.serialize();
  util::ByteReader r{util::ByteView(wire)};
  const Msg back = Msg::deserialize(r);
  if (!r.done()) std::abort();  // decoder must consume exactly what the encoder wrote
  if (back.serialize() != wire) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  ParamSource src(data, size);
  util::Rng rng(src.u64());

  const std::uint64_t n_txs = src.below(64);
  std::vector<chain::Transaction> txs;
  txs.reserve(n_txs);
  for (std::uint64_t i = 0; i < n_txs; ++i) {
    chain::Transaction tx = chain::make_random_transaction(rng);
    tx.size_bytes = 36 + static_cast<std::uint32_t>(src.below(600));
    txs.push_back(tx);
  }

  core::GrapheneBlockMsg blk;
  blk.n = src.below(1u << 20);
  blk.shortid_salt = src.u64();
  blk.filter_s = bloom::BloomFilter(1 + src.below(500), src.unit_fpr(), src.u64());
  for (const auto& tx : txs) blk.filter_s.insert(util::ByteView(tx.id.data(), tx.id.size()));
  blk.iblt_i = iblt::Iblt(
      iblt::IbltParams{static_cast<std::uint32_t>(2 + src.below(15)), 1 + src.below(256)},
      src.u64());
  for (const auto& tx : txs) blk.iblt_i.insert(chain::short_id(tx.id));
  check_roundtrip(blk);

  core::GrapheneRequestMsg req;
  req.z = src.below(1u << 20);
  req.b = src.below(1u << 16);
  req.y_star = src.below(1u << 16);
  req.fpr_r = src.unit_fpr();
  req.reversed = src.below(2) == 1;
  req.filter = bloom::BloomFilter(1 + src.below(500), src.unit_fpr(), src.u64());
  check_roundtrip(req);

  core::GrapheneResponseMsg resp;
  resp.missing = txs;
  resp.iblt_j = iblt::Iblt(
      iblt::IbltParams{static_cast<std::uint32_t>(2 + src.below(15)), 1 + src.below(256)},
      src.u64());
  if (src.below(2) == 1) {
    resp.filter_f = bloom::BloomFilter(1 + src.below(500), src.unit_fpr(), src.u64());
  }
  check_roundtrip(resp);

  core::RepairRequestMsg rreq;
  const std::uint64_t n_ids = src.below(128);
  for (std::uint64_t i = 0; i < n_ids; ++i) rreq.short_ids.push_back(src.u64());
  check_roundtrip(rreq);

  core::RepairResponseMsg rresp;
  rresp.txns = txs;
  check_roundtrip(rresp);
  return 0;
}
