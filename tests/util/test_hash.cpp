#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/random.hpp"

namespace graphene::util {
namespace {

TEST(Mix64, AvalanchesSingleBitFlips) {
  // Flipping any input bit should change roughly half the output bits.
  const std::uint64_t base = mix64(0x123456789abcdef0ULL);
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t flipped = mix64(0x123456789abcdef0ULL ^ (1ULL << bit));
    const int hamming = __builtin_popcountll(base ^ flipped);
    EXPECT_GT(hamming, 12) << "bit " << bit;
    EXPECT_LT(hamming, 52) << "bit " << bit;
  }
}

TEST(Mix64, DistinctInputsGiveDistinctOutputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(SplitDigestWords, SplitsLittleEndian) {
  Bytes digest(32);
  for (std::size_t i = 0; i < 32; ++i) digest[i] = static_cast<std::uint8_t>(i);
  const auto words = split_digest_words(ByteView(digest));
  EXPECT_EQ(words[0], 0x0706050403020100ULL);
  EXPECT_EQ(words[1], 0x0f0e0d0c0b0a0908ULL);
  EXPECT_EQ(words[2], 0x1716151413121110ULL);
  EXPECT_EQ(words[3], 0x1f1e1d1c1b1a1918ULL);
}

TEST(SplitDigestWords, ShortInputZeroExtends) {
  const Bytes digest = {0xff, 0xee};
  const auto words = split_digest_words(ByteView(digest));
  EXPECT_EQ(words[0], 0xeeffULL);
  EXPECT_EQ(words[1], 0u);
  EXPECT_EQ(words[3], 0u);
}

TEST(Hash64, SeedChangesOutput) {
  const Bytes data = {1, 2, 3};
  EXPECT_NE(hash64(ByteView(data), 0), hash64(ByteView(data), 1));
}

TEST(Hash64, EmptyInputIsStable) {
  EXPECT_EQ(hash64(ByteView{}, 0), hash64(ByteView{}, 0));
}

TEST(FastMod64, MatchesHardwareModuloAcrossDivisors) {
  util::Rng rng(0xfee1);
  const std::uint64_t divisors[] = {1,
                                    2,
                                    3,
                                    5,
                                    7,
                                    63,
                                    64,
                                    65,
                                    511,
                                    512,
                                    513,
                                    1000003,
                                    (1ULL << 32) - 1,
                                    (1ULL << 32) + 1,
                                    0x9e3779b97f4a7c15ULL,
                                    ~0ULL};
  for (const std::uint64_t d : divisors) {
    const FastMod64 fm(d);
    EXPECT_EQ(fm.divisor(), d);
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t n = rng.next();
      ASSERT_EQ(fm.mod(n), n % d) << "n=" << n << " d=" << d;
    }
    const std::uint64_t edges[] = {0, 1, d - 1, d, d + 1, ~0ULL, ~0ULL - 1};
    for (const std::uint64_t n : edges) {
      ASSERT_EQ(fm.mod(n), n % d) << "n=" << n << " d=" << d;
    }
  }
}

TEST(FastMod64, ExhaustiveSmallDivisors) {
  // Every (n, d) pair in a dense small grid — the regime stride/block
  // reductions in the Bloom/IBLT hot loops actually hit.
  for (std::uint64_t d = 1; d <= 257; ++d) {
    const FastMod64 fm(d);
    for (std::uint64_t n = 0; n < 1024; ++n) {
      ASSERT_EQ(fm.mod(n), n % d) << "n=" << n << " d=" << d;
    }
  }
}

}  // namespace
}  // namespace graphene::util
