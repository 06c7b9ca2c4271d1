// Length-prefixed framing: encode/decode symmetry, incremental reassembly
// from arbitrary stream splits, and rejection of every malformed envelope an
// adversarial or corrupted peer can present.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "util/random.hpp"

namespace graphene::net {
namespace {

Message make_msg(MessageType type, std::size_t payload_len, std::uint8_t fill = 0xab) {
  return Message{type, util::Bytes(payload_len, fill)};
}

void expect_same(const Message& a, const Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(Frame, RoundTripsOneMessage) {
  const Message msg = make_msg(MessageType::kDaemonHello, 37);
  const util::Bytes wire = encode_frame(msg);
  ASSERT_EQ(wire.size(), kEnvelopeBytes + 37);

  FrameReader reader;
  reader.absorb(wire);
  const std::optional<Message> got = reader.next();
  ASSERT_TRUE(got.has_value());
  expect_same(msg, *got);
  EXPECT_FALSE(reader.mid_frame());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Frame, RoundTripsEmptyPayload) {
  FrameReader reader;
  reader.absorb(encode_frame(make_msg(MessageType::kDaemonBye, 0)));
  const std::optional<Message> got = reader.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MessageType::kDaemonBye);
  EXPECT_TRUE(got->payload.empty());
}

TEST(Frame, ReassemblesFromSingleByteDribble) {
  const Message msg = make_msg(MessageType::kGrapheneBlock, 129, 0x5c);
  const util::Bytes wire = encode_frame(msg);

  FrameReader reader;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (i + 1 < wire.size()) {
      reader.absorb(util::ByteView(&wire[i], 1));
      EXPECT_FALSE(reader.next().has_value()) << "complete at byte " << i;
      EXPECT_TRUE(reader.mid_frame());
    } else {
      reader.absorb(util::ByteView(&wire[i], 1));
    }
  }
  const std::optional<Message> got = reader.next();
  ASSERT_TRUE(got.has_value());
  expect_same(msg, *got);
  EXPECT_FALSE(reader.mid_frame());
}

TEST(Frame, DecodesCoalescedFramesInOrder) {
  const Message a = make_msg(MessageType::kDaemonHello, 5, 1);
  const Message b = make_msg(MessageType::kGrapheneRequest, 0, 2);
  const Message c = make_msg(MessageType::kDaemonError, 77, 3);
  util::Bytes wire = encode_frame(a);
  const util::Bytes wb = encode_frame(b);
  const util::Bytes wc = encode_frame(c);
  wire.insert(wire.end(), wb.begin(), wb.end());
  wire.insert(wire.end(), wc.begin(), wc.end());

  FrameReader reader;
  // Split the coalesced stream at an arbitrary point inside frame b.
  const std::size_t cut = encode_frame(a).size() + 7;
  reader.absorb(util::ByteView(wire.data(), cut));
  std::optional<Message> got = reader.next();
  ASSERT_TRUE(got.has_value());
  expect_same(a, *got);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.mid_frame());

  reader.absorb(util::ByteView(wire.data() + cut, wire.size() - cut));
  got = reader.next();
  ASSERT_TRUE(got.has_value());
  expect_same(b, *got);
  got = reader.next();
  ASSERT_TRUE(got.has_value());
  expect_same(c, *got);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, RejectsBadMagic) {
  util::Bytes wire = encode_frame(make_msg(MessageType::kInv, 4));
  wire[0] ^= 0xff;
  FrameReader reader;
  reader.absorb(wire);
  EXPECT_THROW((void)reader.next(), util::DeserializeError);
}

TEST(Frame, RejectsUnknownCommand) {
  util::Bytes wire = encode_frame(make_msg(MessageType::kInv, 0));
  wire[4] = 'z';  // first command byte: "znv" names nothing
  FrameReader reader;
  reader.absorb(wire);
  EXPECT_THROW((void)reader.next(), util::DeserializeError);
}

TEST(Frame, RejectsNonNulCommandPadding) {
  util::Bytes wire = encode_frame(make_msg(MessageType::kInv, 0));
  wire[4 + kFrameCommandBytes - 1] = 'x';  // garbage after the NUL terminator
  FrameReader reader;
  reader.absorb(wire);
  EXPECT_THROW((void)reader.next(), util::DeserializeError);
}

TEST(Frame, RejectsOversizedLengthBeforeBuffering) {
  // Envelope only — the declared length must be refused without waiting for
  // (or allocating) the phantom payload.
  util::Bytes wire = encode_frame(make_msg(MessageType::kInv, 8));
  wire.resize(kEnvelopeBytes);
  wire[16] = 0xff;  // length field: way beyond the test cap
  wire[17] = 0xff;
  wire[18] = 0xff;
  wire[19] = 0x00;
  FrameReader reader(/*max_payload=*/1024);
  reader.absorb(wire);
  EXPECT_THROW((void)reader.next(), util::DeserializeError);
}

TEST(Frame, RejectsChecksumMismatch) {
  util::Bytes wire = encode_frame(make_msg(MessageType::kGrapheneBlock, 64));
  wire.back() ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.absorb(wire);
  EXPECT_THROW((void)reader.next(), util::DeserializeError);
}

TEST(Frame, EverySingleBitFlipIsRejectedOrIncomplete) {
  // A corrupted frame must never decode as a (different) valid message:
  // every single-bit corruption either throws a typed error or leaves the
  // reader waiting for bytes that never add up.
  const Message msg = make_msg(MessageType::kDaemonHello, 21, 0x3e);
  const util::Bytes wire = encode_frame(msg);
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      util::Bytes corrupt = wire;
      corrupt[byte] = static_cast<std::uint8_t>(corrupt[byte] ^ (1u << bit));
      FrameReader reader;
      reader.absorb(corrupt);
      try {
        const std::optional<Message> got = reader.next();
        EXPECT_FALSE(got.has_value())
            << "bit " << bit << " of byte " << byte << " decoded a message";
      } catch (const util::DeserializeError&) {
        // typed rejection: the expected outcome for most positions
      }
    }
  }
}

TEST(Frame, EncodeRefusesOversizedPayload) {
  EXPECT_THROW((void)encode_frame(make_msg(MessageType::kInv, 100), /*max_payload=*/64),
               util::DeserializeError);
}

TEST(Frame, AbsorbCapsRunawayBuffering) {
  FrameReader reader(/*max_payload=*/128);
  const util::Bytes junk(1024, 0x00);
  // A caller that ignores next()'s throw and keeps absorbing must hit the
  // high-water mark instead of growing without bound.
  bool threw = false;
  try {
    for (int i = 0; i < 64; ++i) reader.absorb(junk);
  } catch (const util::DeserializeError&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

TEST(Frame, ChecksumMatchesDoubleSha256Convention) {
  // Spot-check against an independently computed value: double-SHA256 of an
  // empty payload starts 5d f6 e0 e2 (the Bitcoin empty-checksum constant).
  const auto ck = frame_checksum(util::ByteView());
  EXPECT_EQ(ck[0], 0x5d);
  EXPECT_EQ(ck[1], 0xf6);
  EXPECT_EQ(ck[2], 0xe0);
  EXPECT_EQ(ck[3], 0xe2);
}

TEST(Frame, RandomSplitsAlwaysReassemble) {
  util::Rng rng(0xf7a3e5);
  for (int round = 0; round < 50; ++round) {
    const Message msg =
        make_msg(MessageType::kGrapheneResponse, rng.below(2000),
                 static_cast<std::uint8_t>(rng.next()));
    const util::Bytes wire = encode_frame(msg);
    FrameReader reader;
    std::size_t off = 0;
    std::optional<Message> got;
    while (off < wire.size()) {
      const std::size_t n =
          std::min<std::size_t>(wire.size() - off, 1 + rng.below(97));
      reader.absorb(util::ByteView(wire.data() + off, n));
      off += n;
      if (!got) got = reader.next();
    }
    if (!got) got = reader.next();
    ASSERT_TRUE(got.has_value());
    expect_same(msg, *got);
  }
}

TEST(Frame, AppendingToAnUndrainedQueueReallocatesLogarithmically) {
  // A send queue that is not drained between frames (a daemon connection's
  // queue, a load generator's) takes frame after frame: its capacity must
  // grow geometrically, not by one frame at a time.
  constexpr std::size_t kFrames = 20'000;
  const Message hello = make_msg(MessageType::kDaemonHello, 7, 0x01);
  const Message bye = make_msg(MessageType::kDaemonBye, 5, 0x02);
  util::Bytes queue;
  std::size_t capacity_changes = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::size_t before = queue.capacity();
    encode_frame_into(queue, i % 2 == 0 ? hello : bye);
    if (queue.capacity() != before) ++capacity_changes;
  }
  // Doubling from one frame to 20,000 takes about 15 steps.
  EXPECT_LE(capacity_changes, 32u);
  EXPECT_EQ(queue.size(), kFrames / 2 * (2 * kEnvelopeBytes + 7 + 5));

  // The queue holds exactly the frames encode_frame() builds, in order.
  util::Bytes expected;
  for (std::size_t i = 0; i < 4; ++i) {
    const util::Bytes frame = encode_frame(i % 2 == 0 ? hello : bye);
    expected.insert(expected.end(), frame.begin(), frame.end());
  }
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), queue.begin()));

  // A buffer with room takes the frame in place.
  util::Bytes roomy;
  roomy.reserve(1024);
  const std::uint8_t* data = roomy.data();
  encode_frame_into(roomy, hello);
  EXPECT_EQ(roomy.capacity(), 1024u);
  EXPECT_EQ(roomy.data(), data);
}

}  // namespace
}  // namespace graphene::net
