// SHA-256 body parity: the best compress body this CPU runs must be
// bit-exact against the portable one; Merkle.RootIdenticalAcrossSha256Bodies
// covers the same bodies end to end through util::Sha256.
//
// This is an exact property: the gate runs min_rate = 1.0, so one diverging
// trial fails and prints the shrunk counterexample. On hosts without the SHA
// extensions the best body is the portable one and the gate degenerates to
// self-comparison (still valid, trivially green).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "testkit/stat_gate.hpp"
#include "util/random.hpp"
#include "util/sha256.hpp"

namespace graphene {
namespace {

testkit::StatGateSpec exact_spec(const char* name, std::uint32_t trials) {
  testkit::StatGateSpec spec;
  spec.name = name;
  spec.trials = trials;
  spec.min_rate = 1.0;
  return spec;
}

struct ShaCase {
  std::array<std::uint32_t, 8> state{};
  std::vector<std::uint8_t> buf;  ///< `offset` bytes, then n_blocks * 64
  std::size_t offset = 0;
  std::size_t n_blocks = 0;
};

ShaCase gen_sha_case(util::Rng& rng) {
  ShaCase c;
  for (auto& w : c.state) w = static_cast<std::uint32_t>(rng.next());
  // 0-9 blocks at any alignment: the SHA-NI loads are unaligned.
  c.offset = rng.below(16);
  c.n_blocks = rng.below(10);
  c.buf.resize(c.offset + 64 * c.n_blocks);
  for (auto& b : c.buf) b = static_cast<std::uint8_t>(rng.next());
  return c;
}

TEST(SimdParity, Sha256CompressMatchesPortable) {
  const util::Sha256Compress best = util::sha256_compress_best();
  const testkit::GateResult r =
      testkit::StatGate(exact_spec("simd_sha256_parity", 400))
          .run_cases<ShaCase>(gen_sha_case, [&](const ShaCase& c, util::Rng&) {
            std::array<std::uint32_t, 8> a = c.state;
            std::array<std::uint32_t, 8> b = c.state;
            util::sha256_compress_portable(a.data(), c.buf.data() + c.offset, c.n_blocks);
            best(b.data(), c.buf.data() + c.offset, c.n_blocks);
            return a == b;
          },
          [](const ShaCase& c) {
            // Fewer blocks first, then alignment 0: a block-count or
            // alignment bug survives whichever shrink keeps it.
            std::vector<ShaCase> out;
            if (c.n_blocks > 0) {
              ShaCase fewer = c;
              fewer.n_blocks = c.n_blocks / 2;
              fewer.buf.resize(fewer.offset + 64 * fewer.n_blocks);
              out.push_back(std::move(fewer));
            }
            if (c.offset > 0) {
              ShaCase aligned = c;
              aligned.buf.erase(aligned.buf.begin(),
                                aligned.buf.begin() + static_cast<std::ptrdiff_t>(c.offset));
              aligned.offset = 0;
              out.push_back(std::move(aligned));
            }
            return out;
          },
          [](const ShaCase& c) {
            return "n_blocks=" + std::to_string(c.n_blocks) +
                   " offset=" + std::to_string(c.offset);
          });
  GRAPHENE_EXPECT_GATE(r);
}

std::size_t g_counted_blocks = 0;

/// The portable body, counting the blocks it is handed.
void counting_compress(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n_blocks) {
  g_counted_blocks += n_blocks;
  util::sha256_compress_portable(state, blocks, n_blocks);
}

// The hook itself: a swap makes Sha256 run the new body and hands back the
// old one, swaps nest, and the body swapped out stops running.
TEST(SimdParity, HookSwapsBodyAndRestores) {
  const util::Sha256Compress original =
      util::set_sha256_compress(&util::sha256_compress_portable);
  EXPECT_TRUE(original == &util::sha256_compress_portable ||
              original == util::sha256_compress_best());
  const util::Sha256Digest want = util::sha256(util::str_bytes("abc"));

  EXPECT_EQ(util::set_sha256_compress(&counting_compress), &util::sha256_compress_portable);
  EXPECT_EQ(util::sha256(util::str_bytes("abc")), want);
  EXPECT_EQ(g_counted_blocks, 1u);  // "abc" pads to one block

  EXPECT_EQ(util::set_sha256_compress(&util::sha256_compress_portable), &counting_compress);
  EXPECT_EQ(util::set_sha256_compress(original), &util::sha256_compress_portable);
  EXPECT_EQ(util::sha256(util::str_bytes("abc")), want);
  EXPECT_EQ(g_counted_blocks, 1u);
}

}  // namespace
}  // namespace graphene
