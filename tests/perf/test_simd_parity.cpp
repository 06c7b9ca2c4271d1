// SIMD kernel parity gates: every ISA variant the build carries must be
// bit-exact against the portable reference table. One slot remains,
// sha256_compress; Merkle.RootIdenticalAcrossSha256Bodies covers the same
// body end to end through util::Sha256.
//
// These are exact properties: every gate runs min_rate = 1.0, so one
// diverging trial fails and prints the shrunk counterexample. On hosts where
// the SHA extensions are unavailable the variant table aliases portable and
// the gates degenerate to self-comparison (still valid, trivially green).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "testkit/stat_gate.hpp"
#include "util/random.hpp"
#include "util/simd/simd.hpp"

namespace graphene {
namespace {

namespace simd = util::simd;

/// The non-portable ISAs this build can actually run. Without the SHA
/// extensions the list holds portable alone, so each gate checks portable
/// against itself.
std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> isas;
  if (simd::isa_available(simd::Isa::kShaNi)) isas.push_back(simd::Isa::kShaNi);
  if (isas.empty()) isas.push_back(simd::Isa::kPortable);
  return isas;
}

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
  const simd::Kernels& ref = simd::kernels_for(simd::Isa::kPortable);
  for (const simd::Isa isa : vector_isas()) {
    const simd::Kernels& var = simd::kernels_for(isa);
    const testkit::GateResult r =
        testkit::StatGate(exact_spec("simd_sha256_parity", 400))
            .run_cases<ShaCase>(gen_sha_case, [&](const ShaCase& c, util::Rng&) {
              std::array<std::uint32_t, 8> a = c.state;
              std::array<std::uint32_t, 8> b = c.state;
              ref.sha256_compress(a.data(), c.buf.data() + c.offset, c.n_blocks);
              var.sha256_compress(b.data(), c.buf.data() + c.offset, c.n_blocks);
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
}

// The dispatch plumbing itself: overrides nest and restore, and every
// returned table has all slots populated.
TEST(SimdParity, DispatchOverrideRestoresAndTablesAreComplete) {
  const simd::Isa original = simd::active_isa();
  const simd::Kernels& portable = simd::kernels_for(simd::Isa::kPortable);
  {
    simd::ScopedIsaOverride outer(simd::Isa::kPortable);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kPortable);
    EXPECT_EQ(simd::active().sha256_compress, portable.sha256_compress);
    {
      simd::ScopedIsaOverride inner(simd::detected_isa());
      EXPECT_EQ(simd::active_isa(), simd::detected_isa());
    }
    EXPECT_EQ(simd::active_isa(), simd::Isa::kPortable);
  }
  EXPECT_EQ(simd::active_isa(), original);

  for (const simd::Isa isa : {simd::Isa::kPortable, simd::Isa::kShaNi}) {
    const simd::Kernels& k = simd::kernels_for(isa);
    EXPECT_NE(k.sha256_compress, nullptr);
    EXPECT_NE(simd::isa_name(isa), nullptr);
  }
}

}  // namespace
}  // namespace graphene
