#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace graphene::util {
namespace {

TEST(ByteWriter, WritesLittleEndianIntegers) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0302);
  w.u32(0x07060504);
  w.u64(0x0f0e0d0c0b0a0908ULL);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 15u);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i], i + 1) << "byte " << i;
  }
}

TEST(ByteWriter, SignedRoundTrip) {
  ByteWriter w;
  w.i32(-7);
  w.i64(-123456789012345LL);
  ByteReader r{ByteView(w.bytes())};
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.i64(), -123456789012345LL);
  EXPECT_TRUE(r.done());
}

TEST(ByteWriter, RawAppends) {
  ByteWriter w;
  const Bytes chunk = {0xde, 0xad, 0xbe, 0xef};
  w.raw(ByteView(chunk));
  w.raw(chunk.data(), 2);
  EXPECT_EQ(w.size(), 6u);
  EXPECT_EQ(w.bytes()[4], 0xde);
}

TEST(ByteReader, ReadsBackWhatWriterWrote) {
  ByteWriter w;
  w.u64(0xdeadbeefcafebabeULL);
  w.u16(0x1234);
  ByteReader r{ByteView(w.bytes())};
  EXPECT_EQ(r.u64(), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, ThrowsOnTruncatedInteger) {
  const Bytes b = {0x01, 0x02};
  ByteReader r{ByteView(b)};
  EXPECT_THROW(r.u32(), DeserializeError);
}

TEST(ByteReader, ThrowsOnTruncatedRaw) {
  const Bytes b = {0x01, 0x02, 0x03};
  ByteReader r{ByteView(b)};
  EXPECT_THROW(r.raw(4), DeserializeError);
}

TEST(ByteReader, RemainingTracksConsumption) {
  const Bytes b(10, 0xaa);
  ByteReader r{ByteView(b)};
  EXPECT_EQ(r.remaining(), 10u);
  r.u32();
  EXPECT_EQ(r.remaining(), 6u);
  (void)r.raw(6);
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, RawIntoCopiesExactBytes) {
  const Bytes b = {1, 2, 3, 4, 5};
  ByteReader r{ByteView(b)};
  std::uint8_t dst[3] = {};
  r.raw_into(dst, 3);
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[2], 3);
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(ByteWriter, TakeMovesBuffer) {
  ByteWriter w;
  w.u32(42);
  Bytes b = w.take();
  EXPECT_EQ(b.size(), 4u);
}

}  // namespace
}  // namespace graphene::util
