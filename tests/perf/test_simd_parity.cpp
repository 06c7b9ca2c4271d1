// SIMD kernel parity gates: every ISA variant the build carries must be
// bit-exact against the portable reference table, both at the raw kernel
// level (random inputs, including unaligned tails and saturating counts) and
// end-to-end through the containers that call active() (IBLT
// subtract/serialize, coded-symbol fold).
//
// These are exact properties: every gate runs min_rate = 1.0, so one
// diverging trial fails and prints the shrunk counterexample. On hosts where
// no vector ISA is available the variant table aliases portable and the
// gates degenerate to self-comparison (still valid, trivially green).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "iblt/coded_symbol.hpp"
#include "iblt/iblt.hpp"
#include "testkit/gen.hpp"
#include "testkit/stat_gate.hpp"
#include "util/random.hpp"
#include "util/simd/simd.hpp"

namespace graphene {
namespace {

namespace simd = util::simd;

/// The non-portable ISAs this build can actually run. Empty on a machine
/// without AVX2 — each gate then checks portable against itself.
std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> isas;
  if (simd::isa_available(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
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

struct CellsCase {
  std::vector<std::uint8_t> dst;  // n_cells * 16 bytes, host cell layout
  std::vector<std::uint8_t> src;
  std::size_t n_cells = 0;
};

CellsCase gen_cells_case(util::Rng& rng) {
  CellsCase c;
  // Cover the SIMD width boundaries: 0, 1 (SSE tail), 2 (one AVX2 vector),
  // odd counts (vector body + tail), and larger runs.
  c.n_cells = rng.below(67);
  c.dst.resize(c.n_cells * 16);
  c.src.resize(c.n_cells * 16);
  for (auto& b : c.dst) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : c.src) b = static_cast<std::uint8_t>(rng.next());
  if (c.n_cells > 0 && rng.chance(0.2)) {
    // Force count-lane wraparound: INT_MIN - 1 and INT_MAX - (-1) must wrap
    // identically in both variants (two's-complement subtract).
    const std::size_t cell = rng.below(c.n_cells);
    const std::uint32_t extreme = rng.chance(0.5) ? 0x7fffffffU : 0x80000000U;
    std::memcpy(c.dst.data() + cell * 16 + 8, &extreme, 4);
  }
  return c;
}

TEST(SimdParity, IbltCellKernelsMatchPortable) {
  const simd::Kernels& ref = simd::kernels_for(simd::Isa::kPortable);
  for (const simd::Isa isa : vector_isas()) {
    const simd::Kernels& var = simd::kernels_for(isa);
    const testkit::GateResult r =
        testkit::StatGate(exact_spec("simd_iblt_cells_parity", 400))
            .run_cases<CellsCase>(gen_cells_case, [&](const CellsCase& c, util::Rng&) {
              std::vector<std::uint8_t> a = c.dst;
              std::vector<std::uint8_t> b = c.dst;
              ref.cells_sub(a.data(), c.src.data(), c.n_cells);
              var.cells_sub(b.data(), c.src.data(), c.n_cells);
              return a == b;
            },
            [](const CellsCase& c) {
              // Shrink toward fewer cells: the kernel loop structure is the
              // only state, so halving the run preserves any width-boundary
              // failure class.
              std::vector<CellsCase> out;
              if (c.n_cells > 0) {
                CellsCase half = c;
                half.n_cells = c.n_cells / 2;
                half.dst.resize(half.n_cells * 16);
                half.src.resize(half.n_cells * 16);
                out.push_back(std::move(half));
              }
              return out;
            },
            [](const CellsCase& c) { return "n_cells=" + std::to_string(c.n_cells); });
    GRAPHENE_EXPECT_GATE(r);
  }
}

struct BytesCase {
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
};

BytesCase gen_bytes_case(util::Rng& rng) {
  BytesCase c;
  // Straddle every tail split of the 32-byte vector width, plus long runs.
  const std::size_t n = rng.below(200);
  c.a.resize(n);
  c.b.resize(n);
  for (auto& v : c.a) v = static_cast<std::uint8_t>(rng.next());
  if (rng.chance(0.25)) {
    c.b = c.a;  // equal buffers: xor_bytes folds to all zero
  } else if (rng.chance(0.3) && n > 0) {
    c.b = c.a;  // single-byte flip at a random offset, often in the tail
    c.b[rng.below(n)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  } else {
    for (auto& v : c.b) v = static_cast<std::uint8_t>(rng.next());
  }
  if (rng.chance(0.2)) std::fill(c.a.begin(), c.a.end(), 0);  // all_zero hits
  return c;
}

TEST(SimdParity, ByteKernelsMatchPortable) {
  const simd::Kernels& ref = simd::kernels_for(simd::Isa::kPortable);
  for (const simd::Isa isa : vector_isas()) {
    const simd::Kernels& var = simd::kernels_for(isa);
    const testkit::GateResult r =
        testkit::StatGate(exact_spec("simd_bytes_parity", 400))
            .run_cases<BytesCase>(gen_bytes_case, [&](const BytesCase& c, util::Rng&) {
              std::vector<std::uint8_t> x = c.a;
              std::vector<std::uint8_t> y = c.a;
              ref.xor_bytes(x.data(), c.b.data(), x.size());
              var.xor_bytes(y.data(), c.b.data(), y.size());
              if (x != y) return false;
              if (ref.all_zero(x.data(), x.size()) != var.all_zero(x.data(), x.size())) {
                return false;
              }
              return ref.all_zero(c.a.data(), c.a.size()) ==
                     var.all_zero(c.a.data(), c.a.size());
            },
            [](const BytesCase& c) {
              std::vector<BytesCase> out;
              if (!c.a.empty()) {
                BytesCase half = c;
                half.a.resize(c.a.size() / 2);
                half.b.resize(c.b.size() / 2);
                out.push_back(std::move(half));
              }
              return out;
            },
            [](const BytesCase& c) { return "len=" + std::to_string(c.a.size()); });
    GRAPHENE_EXPECT_GATE(r);
  }
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

// End-to-end: the containers route through active(), so running the same
// subtract/fold under each override must produce identical serialized
// bytes — the kernels are invisible at the wire.
TEST(SimdParity, ContainersBitExactAcrossIsaOverride) {
  testkit::ScenarioDims dims;
  dims.min_block_txns = 2;
  dims.max_block_txns = 300;
  const testkit::GateResult r =
      testkit::StatGate(exact_spec("simd_container_parity", 40))
          .run_cases<testkit::GenCase>(
              [&](util::Rng& rng) { return testkit::gen_case(rng, dims); },
              [&](const testkit::GenCase& c, util::Rng&) {
                const chain::Scenario s = testkit::build_scenario(c);
                const std::vector<chain::TxId> ids = s.block.tx_ids();

                std::vector<util::Bytes> iblt_wire;
                std::vector<std::array<std::uint8_t, 32>> folded;
                for (const simd::Isa isa :
                     {simd::Isa::kPortable, simd::detected_isa()}) {
                  simd::ScopedIsaOverride force(isa);
                  iblt::Iblt t(iblt::IbltParams{4, 40}, c.salt);
                  for (const chain::TxId& id : ids) {
                    t.insert(util::hash64(util::ByteView(id), c.salt));
                  }
                  // Subtract a half-populated twin: routes through the
                  // cells_sub kernel before serializing.
                  iblt::Iblt t2(iblt::IbltParams{4, 40}, c.salt);
                  for (std::size_t i = 0; i < ids.size(); i += 2) {
                    t2.insert(util::hash64(util::ByteView(ids[i]), c.salt));
                  }
                  iblt_wire.push_back(t.subtract(t2).serialize());

                  iblt::CodedSymbol sym;
                  for (const chain::TxId& id : ids) {
                    sym.apply(id, util::hash64(util::ByteView(id), c.salt), +1);
                  }
                  folded.push_back(sym.sum);
                }
                return iblt_wire[0] == iblt_wire[1] && folded[0] == folded[1];
              },
              [](const testkit::GenCase& c) { return testkit::shrink_case(c); },
              [](const testkit::GenCase& c) { return testkit::describe_case(c); });
  GRAPHENE_EXPECT_GATE(r);
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

  for (const simd::Isa isa : {simd::Isa::kPortable, simd::Isa::kAvx2}) {
    const simd::Kernels& k = simd::kernels_for(isa);
    EXPECT_NE(k.cells_sub, nullptr);
    EXPECT_NE(k.xor_bytes, nullptr);
    EXPECT_NE(k.all_zero, nullptr);
    EXPECT_NE(k.sha256_compress, nullptr);
    EXPECT_NE(simd::isa_name(isa), nullptr);
  }
}

}  // namespace
}  // namespace graphene
