// Runtime-dispatched SIMD kernels for the data-plane hot paths.
//
// The portable scalar table is the reference implementation: every ISA
// variant must be bit-exact against it (tests/perf/test_simd_parity.cpp
// pins this with min_rate=1.0 StatGates), so callers can route through
// active() unconditionally. Dispatch is resolved once, on first use, from
// CPU capability detection plus the GRAPHENE_SIMD environment override
// (off|portable pins the portable table; unset or any other value means
// auto).
//
// A slot exists only while some ISA variant beats the portable body on a
// bench at the sizes its callers pass (docs/PERFORMANCE.md); a kernel that
// does not is deleted.
//
// One slot remains, SHA-256 compression. Isa::kShaNi names the x86 table,
// which differs from the portable one only in its SHA-NI sha256_compress;
// auto-dispatch picks it exactly when the CPU reports the SHA extensions
// and SSE4.1.
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
  kShaNi = 1,
};

/// Function-pointer table for every vectorizable kernel. All pointers are
/// always non-null.
struct Kernels {
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
