#include "graphene/messages.hpp"

#include <algorithm>

#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene::core {

namespace {
// id (32) + u32 size field.
constexpr std::size_t kTxFixedOverhead = 36;

/// Reads an optional-field presence flag; only the canonical encodings 0 and
/// 1 are accepted, so every message has exactly one wire form.
bool read_presence_flag(util::ByteReader& reader, const char* what) {
  const std::uint8_t flag = reader.u8();
  if (flag > 1) {
    throw util::DeserializeError(std::string(what) + ": invalid presence flag " +
                                 std::to_string(flag));
  }
  return flag == 1;
}

/// An FPR echoed over the wire must be a real probability: NaN or a value
/// outside (0, 1] would poison the sender's Theorem 2/3 bound arithmetic.
double checked_fpr(double fpr, const char* what) {
  if (!(fpr > 0.0 && fpr <= 1.0)) {
    throw util::DeserializeError(std::string(what) + ": fpr not in (0, 1]");
  }
  return fpr;
}
}  // namespace

void write_full_tx(util::ByteWriter& w, const chain::Transaction& tx) {
  w.raw(util::ByteView(tx.id.data(), tx.id.size()));
  w.u32(tx.size_bytes);
  // Synthetic body pads the record to the transaction's nominal size.
  const std::size_t body =
      tx.size_bytes > kTxFixedOverhead ? tx.size_bytes - kTxFixedOverhead : 0;
  for (std::size_t i = 0; i < body; ++i) w.u8(0xab);
}

chain::Transaction read_full_tx(util::ByteReader& r) {
  chain::Transaction tx;
  r.raw_into(tx.id.data(), tx.id.size());
  tx.size_bytes = r.u32();
  // Cap before the claimed size leaves the deserializer: it pads body bytes
  // here AND re-serialization of the decoded block later, so an unvalidated
  // 4 GiB claim in a 40-byte record amplifies into downstream allocations
  // (tests/net/test_wire_regressions.cpp has the minimized fixture).
  if (tx.size_bytes > util::wire::kMaxTxWireSize) {
    throw util::DeserializeError("full tx: claimed size " +
                                 std::to_string(tx.size_bytes) +
                                 " exceeds kMaxTxWireSize");
  }
  const std::size_t body =
      tx.size_bytes > kTxFixedOverhead ? tx.size_bytes - kTxFixedOverhead : 0;
  (void)r.raw(body);
  return tx;
}

std::size_t full_tx_wire_size(const chain::Transaction& tx) noexcept {
  return std::max<std::size_t>(tx.size_bytes, kTxFixedOverhead);
}

util::Bytes GrapheneBlockMsg::serialize() const {
  util::ByteWriter w;
  header.serialize_into(w);
  util::write_varint(w, n);
  w.u64(shortid_salt);
  filter_s.serialize_into(w);
  iblt_i.serialize_into(w);
  return w.take();
}

GrapheneBlockMsg GrapheneBlockMsg::deserialize(util::ByteReader& reader) {
  GrapheneBlockMsg msg;
  msg.header = chain::BlockHeader::deserialize(reader);
  msg.n = util::read_varint_bounded(reader, util::wire::kMaxBlockTxCount,
                                    "GrapheneBlockMsg n");
  msg.shortid_salt = reader.u64();
  msg.filter_s = bloom::BloomFilter::deserialize(reader);
  msg.iblt_i = iblt::Iblt::deserialize(reader);
  return msg;
}

util::Bytes GrapheneRequestMsg::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, z);
  util::write_varint(w, b);
  util::write_varint(w, y_star);
  std::uint64_t fpr_bits = 0;
  static_assert(sizeof(fpr_bits) == sizeof(fpr_r));
  std::memcpy(&fpr_bits, &fpr_r, sizeof(fpr_bits));
  w.u64(fpr_bits);
  w.u8(reversed ? 1 : 0);
  filter.serialize_into(w);
  return w.take();
}

GrapheneRequestMsg GrapheneRequestMsg::deserialize(util::ByteReader& reader) {
  GrapheneRequestMsg msg;
  msg.z = util::read_varint_bounded(reader, util::wire::kMaxWireCollection,
                                    "GrapheneRequestMsg z");
  // b and y* size the IBLT the sender builds in response (b + y* cells), so
  // they are capped before they can reach an allocator.
  msg.b = util::read_varint_bounded(reader, util::wire::kMaxSizingParam,
                                    "GrapheneRequestMsg b");
  msg.y_star = util::read_varint_bounded(reader, util::wire::kMaxSizingParam,
                                         "GrapheneRequestMsg y_star");
  const std::uint64_t fpr_bits = reader.u64();
  std::memcpy(&msg.fpr_r, &fpr_bits, sizeof(msg.fpr_r));
  msg.fpr_r = checked_fpr(msg.fpr_r, "GrapheneRequestMsg");
  msg.reversed = read_presence_flag(reader, "GrapheneRequestMsg reversed");
  msg.filter = bloom::BloomFilter::deserialize(reader);
  return msg;
}

util::Bytes GrapheneResponseMsg::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, missing.size());
  for (const chain::Transaction& tx : missing) write_full_tx(w, tx);
  iblt_j.serialize_into(w);
  w.u8(filter_f.has_value() ? 1 : 0);
  if (filter_f) filter_f->serialize_into(w);
  return w.take();
}

GrapheneResponseMsg GrapheneResponseMsg::deserialize(util::ByteReader& reader) {
  GrapheneResponseMsg msg;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "GrapheneResponseMsg count");
  if (count > reader.remaining() / kTxFixedOverhead) {
    throw util::DeserializeError("GrapheneResponseMsg: transaction count exceeds buffer");
  }
  msg.missing.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) msg.missing.push_back(read_full_tx(reader));
  msg.iblt_j = iblt::Iblt::deserialize(reader);
  if (read_presence_flag(reader, "GrapheneResponseMsg filter_f")) {
    msg.filter_f = bloom::BloomFilter::deserialize(reader);
  }
  return msg;
}

std::size_t GrapheneResponseMsg::missing_tx_bytes() const noexcept {
  std::size_t total = 0;
  for (const chain::Transaction& tx : missing) total += full_tx_wire_size(tx);
  return total;
}

util::Bytes RepairRequestMsg::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, short_ids.size());
  for (std::uint64_t id : short_ids) w.u64(id);
  return w.take();
}

RepairRequestMsg RepairRequestMsg::deserialize(util::ByteReader& reader) {
  RepairRequestMsg msg;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "RepairRequestMsg count");
  if (count > reader.remaining() / 8) {
    throw util::DeserializeError("RepairRequestMsg: id count exceeds buffer");
  }
  msg.short_ids.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) msg.short_ids.push_back(reader.u64());
  return msg;
}

util::Bytes RepairResponseMsg::serialize() const {
  util::ByteWriter w;
  util::write_varint(w, txns.size());
  for (const chain::Transaction& tx : txns) write_full_tx(w, tx);
  return w.take();
}

RepairResponseMsg RepairResponseMsg::deserialize(util::ByteReader& reader) {
  RepairResponseMsg msg;
  const std::uint64_t count = util::read_varint_bounded(
      reader, util::wire::kMaxWireCollection, "RepairResponseMsg count");
  if (count > reader.remaining() / kTxFixedOverhead) {
    throw util::DeserializeError("RepairResponseMsg: transaction count exceeds buffer");
  }
  msg.txns.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) msg.txns.push_back(read_full_tx(reader));
  return msg;
}

}  // namespace graphene::core
