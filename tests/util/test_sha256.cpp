#include "util/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>

#include "util/hex.hpp"

namespace graphene::util {
namespace {

std::string hash_hex(const std::string& input) {
  const Sha256Digest d = sha256(str_bytes(input));
  return to_hex(ByteView(d.data(), d.size()));
}

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(str_bytes(chunk));
  }
  EXPECT_EQ(to_hex(ByteView(h.finalize().data(), 32)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, BlockBoundaryLengths) {
  // 55/56/57 bytes straddle the length-field boundary; 63/64/65 the block
  // boundary. One-shot and byte-at-a-time hashing must agree at each.
  for (const std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string s(len, 'q');
    const auto d1 = sha256(str_bytes(s));
    Sha256 incremental;
    for (char ch : s) incremental.update(&ch, 1);
    EXPECT_EQ(d1, incremental.finalize()) << "length " << len;
  }
}

// Pins the padding at every tail length over three blocks and more: the
// digest of the concatenated digests of 'a' x len, len in [0, 200], each
// hashed one-shot and then fed in uneven update() chunks so the buffered
// tail starts at every offset. Any change to update() or finalize() must
// leave this value unchanged.
TEST(Sha256, PaddingBoundaryGolden) {
  static constexpr std::size_t kChunks[] = {1, 7, 64, 3, 55, 13, 129};
  Sha256 all;
  for (std::size_t len = 0; len <= 200; ++len) {
    const std::string s(len, 'a');
    const Sha256Digest one_shot = sha256(str_bytes(s));
    Sha256 chunked;
    for (std::size_t off = 0, i = 0; off < len; ++i) {
      const std::size_t take = std::min(kChunks[i % std::size(kChunks)], len - off);
      chunked.update(s.data() + off, take);
      off += take;
    }
    const Sha256Digest pieces = chunked.finalize();
    all.update(one_shot.data(), one_shot.size());
    all.update(pieces.data(), pieces.size());
  }
  const Sha256Digest d = all.finalize();
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())), "0addd6741e62f0642ad65a315e7ede2e2a492b60bde4dbcdcb6af4fb1eeedd68");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string input = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  h.update(input.data(), 10);
  h.update(input.data() + 10, input.size() - 10);
  const auto incremental = h.finalize();
  const auto oneshot = sha256(str_bytes(input));
  EXPECT_EQ(incremental, oneshot);
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update("abc", 3);
  const auto first = h.finalize();
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(first, h.finalize());
}

TEST(Sha256, DoubleHashMatchesComposition) {
  const Bytes payload = {1, 2, 3, 4};
  const auto once = sha256(ByteView(payload));
  const auto composed = sha256(ByteView(once.data(), once.size()));
  EXPECT_EQ(sha256d(ByteView(payload)), composed);
}

// GRAPHENE_SIMD=off or portable pins the portable body; unset or any other
// value runs the best one. ctest runs this as the environment has it and once
// more as Sha256.BodyFollowsSimdPin.simd_off, so both branches are covered.
TEST(Sha256, BodyFollowsSimdPin) {
  const char* env = std::getenv("GRAPHENE_SIMD");
  const bool pinned =
      env != nullptr && (std::string_view(env) == "off" || std::string_view(env) == "portable");
  const Sha256Compress active = set_sha256_compress(&sha256_compress_portable);
  set_sha256_compress(active);
  EXPECT_EQ(active, pinned ? &sha256_compress_portable : sha256_compress_best())
      << "GRAPHENE_SIMD=" << (env != nullptr ? env : "(unset)");
}

}  // namespace
}  // namespace graphene::util
