// Runtime-dispatched SIMD kernels for the data-plane hot paths.
//
// The portable scalar table is the reference implementation: every ISA
// variant must be bit-exact against it (tests/perf/test_simd_parity.cpp
// pins this with min_rate=1.0 StatGates), so callers can route through
// active() unconditionally. Dispatch is resolved once, on first use, from
// CPU capability detection plus the GRAPHENE_SIMD environment override
// (off|portable|avx2|auto; unknown values fall back to auto, and a
// requested ISA the CPU lacks falls back to portable).
//
// A slot exists only while some ISA variant beats the portable body on the
// bench (docs/PERFORMANCE.md); a kernel that does not is deleted.
//
// Isa::kAvx2 names the x86 table. Its sha256_compress is the SHA-NI body
// when the CPU also reports the SHA extensions and the portable body when
// it does not (Haswell through Comet Lake have AVX2 without SHA). A CPU
// with SHA but no AVX2 runs the portable table.
//
// Intrinsics and ISA headers such as <immintrin.h> are confined to this
// directory (tools/lint.py enforces the boundary); ISA-specific code lives
// in its own translation unit compiled with the matching -m flags so no
// vector instruction can execute before the capability check.
#pragma once

#include <cstddef>
#include <cstdint>

namespace graphene::util::simd {

enum class Isa : std::uint8_t {
  kPortable = 0,
  kAvx2 = 1,
};

/// Function-pointer table for every vectorizable kernel. All pointers are
/// always non-null.
struct Kernels {
  /// IBLT cell subtract: for n 16-byte cells laid out as
  ///   { u64 key_sum; i32 count; u32 check_sum }  (host representation)
  /// fold src out of dst: key_sum ^= , count -= (wrapping), check_sum ^= .
  /// dst and src must not partially overlap.
  void (*cells_sub)(void* dst, const void* src, std::size_t n_cells);

  /// dst[i] ^= src[i] for i in [0, n). Used by CodedSymbol::apply digest
  /// folds. Buffers must not partially overlap.
  void (*xor_bytes)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
  /// True iff every byte in [p, p+n) is zero.
  bool (*all_zero)(const std::uint8_t* p, std::size_t n);

  /// SHA-256 compression (FIPS 180-4 §6.2.2): folds n_blocks consecutive
  /// 64-byte message blocks, in order, into the eight-word hash state.
  /// `blocks` need not be aligned; n_blocks = 0 leaves the state unchanged.
  void (*sha256_compress)(std::uint32_t state[8], const std::uint8_t* blocks,
                          std::size_t n_blocks);
};

/// The kernel table selected for this process (env override + CPU probe,
/// resolved once on first call; subsequent calls are a relaxed atomic load).
[[nodiscard]] const Kernels& active() noexcept;

/// The ISA backing active().
[[nodiscard]] Isa active_isa() noexcept;

/// The ISA auto-dispatch would pick on this CPU, ignoring the env override.
[[nodiscard]] Isa detected_isa() noexcept;

/// Whether this build + CPU can run the given ISA's kernels.
[[nodiscard]] bool isa_available(Isa isa) noexcept;

/// The kernel table for a specific ISA; falls back to portable when the ISA
/// is unavailable. Lets benches and parity tests compare variants directly.
[[nodiscard]] const Kernels& kernels_for(Isa isa) noexcept;

[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// Test-only: force active() to a specific ISA for the lifetime of the
/// object (falls back to portable if unavailable). Not thread-safe against
/// concurrent hot-path use — parity tests drive kernels single-threaded.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(Isa isa) noexcept;
  ~ScopedIsaOverride();
  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  Isa prev_;
};

}  // namespace graphene::util::simd
