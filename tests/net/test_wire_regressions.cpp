// Byte-fixture regressions for hardening findings on the untrusted wire
// surface. Each fixture is the minimized hostile input for a bug class that
// the deserializers now reject up front:
//
//   * length-field overflow — a varint near 2^64 made `(v + 7) / 8` wrap to
//     a tiny payload check while `(v + 63) / 64` still drove a huge
//     allocation (BloomFilter);
//   * unbounded allocation — counts far beyond any real message reached
//     reserve()/assign() before any buffer-size comparison;
//   * non-canonical encodings — presence flags above 1 and zero-cell IBLTs
//     parsed into states no serializer emits, breaking the
//     deserialize(serialize(x)) == x fuzz invariant;
//   * poisoned parameters — NaN / out-of-range FPRs flowed into the
//     sender's Theorem 2/3 bound arithmetic, and oversized b/y* sized the
//     response IBLT directly.
//
// If any of these starts parsing again, a fuzz harness will also find it —
// this suite just fails faster and points at the exact fixture.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "graphene/errors.hpp"
#include "graphene/forensics.hpp"
#include "graphene/messages.hpp"
#include "graphene/sender.hpp"
#include "iblt/iblt.hpp"
#include "sim/scenario.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"
#include "util/varint.hpp"
#include "util/wire_limits.hpp"

namespace graphene {
namespace {

void put_u64(util::Bytes& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename T>
void expect_rejected(const util::Bytes& wire, const char* why) {
  util::ByteReader r{util::ByteView(wire)};
  EXPECT_THROW((void)T::deserialize(r), util::DeserializeError) << why;
}

// ---------------------------------------------------------------------------
// BloomFilter: bit count 2^64-7 wraps (v+7)/8 to 0, so the payload check
// passed on an 8-byte tail while bits_.assign((v+63)/64, 0) attempted a
// ~2^58-word allocation. Must now die at the varint cap, before arithmetic.
TEST(WireRegression, BloomFilterHugeBitCountRejected) {
  util::Bytes wire = {0xff};  // 9-byte varint marker
  put_u64(wire, std::numeric_limits<std::uint64_t>::max() - 6);  // n_bits = 2^64 - 7
  wire.push_back(0x04);  // k = 4
  put_u64(wire, 0);      // seed
  expect_rejected<bloom::BloomFilter>(wire, "wrapping bit count");
}

TEST(WireRegression, BloomFilterJustOverCapRejectedAndCapRoundTrips) {
  // 2^32 bits (the cap) is still parseable in principle; 2^32 + 1 is not.
  util::Bytes wire = {0xff};
  put_u64(wire, (1ULL << 32) + 1);
  wire.push_back(0x04);
  put_u64(wire, 0);
  expect_rejected<bloom::BloomFilter>(wire, "bit count just over cap");

  // And a genuine filter still round-trips, so the cap is not over-eager.
  bloom::BloomFilter f(100, 0.01, 7);
  const util::Bytes ok = f.serialize();
  util::ByteReader r{util::ByteView(ok)};
  EXPECT_EQ(bloom::BloomFilter::deserialize(r).serialize(), ok);
}

// ---------------------------------------------------------------------------
// IBLT: a zero cell count deserialized into a table no constructor can
// produce (the ctor rounds 0 up to k), breaking re-serialization canonicity;
// a huge count reached cells_.assign() before any buffer comparison.
TEST(WireRegression, IbltZeroCellsRejected) {
  util::Bytes wire = {0x00, 0x04};  // cells = 0, k = 4
  put_u64(wire, 0);                 // seed
  expect_rejected<iblt::Iblt>(wire, "zero cells");
}

TEST(WireRegression, IbltCellCountNotMultipleOfKRejected) {
  util::Bytes wire = {0x05, 0x04};  // cells = 5, k = 4
  put_u64(wire, 0);
  wire.resize(wire.size() + 5 * iblt::Iblt::kCellBytes, 0x00);
  expect_rejected<iblt::Iblt>(wire, "cells % k != 0");
}

TEST(WireRegression, IbltHugeCellCountRejectedBeforeAllocation) {
  util::Bytes wire;
  wire.push_back(0xff);               // cells = 2^32 (over the 2^24 cap)
  put_u64(wire, 1ULL << 32);
  wire.push_back(0x04);
  put_u64(wire, 0);
  expect_rejected<iblt::Iblt>(wire, "cell count over cap");
}

// Found by fuzz_iblt under UBSan: a wire cell carrying count INT32_MIN sat
// on one of a peelable key's positions, so peeling computed INT32_MIN - 1 —
// signed overflow. Count arithmetic now wraps (two's-complement), which is
// harmless: peeling termination is bounded by the seen-key map, not counts.
//
// The fixture is a genuine one-item table whose second key-cell count is
// patched to INT32_MIN at its exact wire offset.
util::Bytes one_item_iblt_wire_with_patched_count(std::int32_t patched) {
  iblt::Iblt t(iblt::IbltParams{2, 8}, /*seed=*/5);
  t.insert(0x1234567890abcdefULL);
  util::Bytes wire = t.serialize();
  // Layout: varint(8) | u8(k) | u64(seed) | 8 × (i32 count, u64 key, u32 chk).
  constexpr std::size_t kHeader = 1 + 1 + 8;
  bool first = true;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t off = kHeader + i * iblt::Iblt::kCellBytes;
    if (wire[off] == 1) {  // count == 1 (LE), one of the key's two cells
      if (first) {
        first = false;
        continue;  // leave the first pure so peeling starts
      }
      for (int b = 0; b < 4; ++b) {
        wire[off + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(static_cast<std::uint32_t>(patched) >> (8 * b));
      }
      return wire;
    }
  }
  ADD_FAILURE() << "expected two cells with count 1";
  return wire;
}

TEST(WireRegression, IbltDecodeSurvivesInt32MinCellCount) {
  const util::Bytes wire =
      one_item_iblt_wire_with_patched_count(std::numeric_limits<std::int32_t>::min());
  util::ByteReader r{util::ByteView(wire)};
  const iblt::Iblt hostile = iblt::Iblt::deserialize(r);
  const iblt::DecodeResult decoded = hostile.decode();  // UB before the fix
  EXPECT_FALSE(decoded.success);  // the patched cell can never zero out
}

TEST(WireRegression, IbltSubtractSurvivesInt32MinCellCount) {
  const util::Bytes patched =
      one_item_iblt_wire_with_patched_count(std::numeric_limits<std::int32_t>::min());
  iblt::Iblt t(iblt::IbltParams{2, 8}, /*seed=*/5);
  t.insert(0x1234567890abcdefULL);
  util::ByteReader r{util::ByteView(patched)};
  const iblt::Iblt hostile = iblt::Iblt::deserialize(r);
  // The patched cell's count must wrap two's-complement; every other cell
  // cancels (or was empty) and holds count 0.
  const auto counts_of = [](iblt::Iblt diff) {
    std::vector<std::int32_t> counts;
    for (const iblt::Iblt::Cell& c : diff.cells_for_test()) {
      if (c.count != 0) counts.push_back(c.count);
    }
    return counts;
  };
  const iblt::Iblt hostile_minus_t = hostile.subtract(t);
  const iblt::Iblt t_minus_hostile = t.subtract(hostile);
  EXPECT_EQ(counts_of(hostile_minus_t),  // INT32_MIN - 1: UB before the fix
            std::vector<std::int32_t>{std::numeric_limits<std::int32_t>::max()});
  EXPECT_EQ(counts_of(t_minus_hostile),  // 1 - INT32_MIN: likewise
            std::vector<std::int32_t>{std::numeric_limits<std::int32_t>::min() + 1});
  (void)hostile_minus_t.decode();
  (void)t_minus_hostile.decode();
}

// ---------------------------------------------------------------------------
// Presence flags: any nonzero byte used to read as "present", so flag = 2
// produced a message whose re-serialization (flag = 1) differed from its
// wire image. Canonical form is now enforced.
TEST(WireRegression, ResponsePresenceFlagTwoRejected) {
  util::ByteWriter w;
  util::write_varint(w, 0);                        // no missing transactions
  w.raw(util::ByteView(iblt::Iblt(iblt::IbltParams{4, 8}, 3).serialize()));
  w.u8(2);                                         // non-canonical flag
  expect_rejected<core::GrapheneResponseMsg>(w.take(), "presence flag 2");
}

TEST(WireRegression, RequestReversedFlagTwoRejected) {
  util::ByteWriter w;
  util::write_varint(w, 10);  // z
  util::write_varint(w, 1);   // b
  util::write_varint(w, 1);   // y*
  const double fpr = 0.1;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &fpr, sizeof(bits));
  w.u64(bits);
  w.u8(2);                    // reversed must be 0 or 1
  w.raw(util::ByteView(bloom::BloomFilter(10, 0.1, 1).serialize()));
  expect_rejected<core::GrapheneRequestMsg>(w.take(), "reversed flag 2");
}

// ---------------------------------------------------------------------------
// FPR poisoning: NaN compares false against every bound, so an attacker's
// NaN fpr_r sailed through `fpr <= 0 || fpr > 1`-style checks written the
// naive way and reached the sender's log()-based sizing.
TEST(WireRegression, RequestNanFprRejected) {
  util::Bytes wire = {0x0a, 0x01, 0x01};           // z = 10, b = 1, y* = 1
  put_u64(wire, 0x7ff8000000000000ULL);            // quiet NaN
  wire.push_back(0x00);
  expect_rejected<core::GrapheneRequestMsg>(wire, "NaN fpr");
}

TEST(WireRegression, RequestZeroFprRejected) {
  util::Bytes wire = {0x0a, 0x01, 0x01};
  put_u64(wire, 0);                                // +0.0: not a usable FPR
  wire.push_back(0x00);
  expect_rejected<core::GrapheneRequestMsg>(wire, "fpr = 0");
}

// ---------------------------------------------------------------------------
// Full-tx records: the claimed size_bytes was buffer-checked at read time
// (r.raw(body) can't overrun) but crossed the deserializer otherwise
// unvalidated, and full_tx_wire_size()/write_full_tx() pad re-serialization
// to the claim — so a record whose body IS present but whose claim is
// absurd amplified into equally absurd downstream encodes. Found by the
// flow-aware graphene-bounded-wire-read tidy check (tools/tidy-plugin);
// lint.py's same-line regex could not see the cross-statement flow.
util::Bytes repair_response_with_one_claim(std::uint32_t claimed) {
  util::ByteWriter w;
  util::write_varint(w, 1);  // count
  const util::Bytes id(32, 0x11);
  w.raw(util::ByteView(id));
  w.u32(claimed);
  // The body bytes are genuinely present, so every remaining()-style buffer
  // check passes; only the absolute cap can reject the claim.
  const util::Bytes body(claimed > 36 ? claimed - 36 : 0, 0xab);
  w.raw(util::ByteView(body));
  return w.take();
}

TEST(WireRegression, FullTxClaimOverCapRejectedEvenWhenBufferBacked) {
  const auto claimed = static_cast<std::uint32_t>(util::wire::kMaxTxWireSize + 1);
  expect_rejected<core::RepairResponseMsg>(repair_response_with_one_claim(claimed),
                                           "buffer-backed over-cap tx claim");
}

TEST(WireRegression, FullTxClaimAtCapStillRoundTrips) {
  const auto claimed = static_cast<std::uint32_t>(util::wire::kMaxTxWireSize);
  const util::Bytes wire = repair_response_with_one_claim(claimed);
  util::ByteReader r{util::ByteView(wire)};
  const core::RepairResponseMsg msg = core::RepairResponseMsg::deserialize(r);
  ASSERT_EQ(msg.txns.size(), 1u);
  EXPECT_EQ(msg.txns[0].size_bytes, claimed);
  EXPECT_EQ(msg.serialize(), wire);
}

// The forensics snapshot codec replays captures through the full protocol
// engines, so a capture file is wire input too: an oversized claim in a
// stored mempool must die at load, not at replay-time re-encode.
TEST(WireRegression, ForensicCaptureOversizedTxClaimRejectedOnLoad) {
  core::ForensicCapture cap;
  cap.kind = "decode_failure";
  cap.stage = "p1_peel";
  chain::Transaction tx;
  tx.size_bytes = static_cast<std::uint32_t>(util::wire::kMaxTxWireSize + 1);
  cap.mempool.push_back(tx);
  const std::string json = cap.to_json();  // producer side still serializes
  EXPECT_THROW((void)core::ForensicCapture::from_json(json),
               util::DeserializeError);
}

// ---------------------------------------------------------------------------
// Sender::serve sizes the response IBLT as b + y* items. Wire parsing caps
// both, but a request built in-process (or a future message type that
// forgets the cap) must hit the sender's own revalidation, not an allocator.
TEST(WireRegression, SenderRejectsOversizedRequestParameters) {
  util::Rng rng(42);
  chain::ScenarioSpec spec;
  spec.block_txns = 50;
  spec.extra_txns = 50;
  const chain::Scenario s = chain::make_scenario(spec, rng);
  const core::Sender sender(s.block, /*salt=*/1);

  core::GrapheneRequestMsg req;
  req.z = 100;
  req.fpr_r = 0.1;
  req.filter = bloom::BloomFilter(100, 0.1, 2);
  req.b = std::numeric_limits<std::uint64_t>::max() - 5;  // b + y* wraps
  req.y_star = 10;
  EXPECT_THROW((void)sender.serve(req), core::ProtocolError);

  req.b = 1;
  req.y_star = util::wire::kMaxSizingParam + 1;
  EXPECT_THROW((void)sender.serve(req), core::ProtocolError);
}

}  // namespace
}  // namespace graphene
