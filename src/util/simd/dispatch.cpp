// Runtime ISA selection: CPU capability probe + GRAPHENE_SIMD env override,
// resolved once on first use. The resolved table is published through a
// relaxed atomic so hot-path callers pay one load, no lock.

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/simd/kernels.hpp"

namespace graphene::util::simd {
namespace {

bool cpu_has_sha_ni() noexcept {
#if defined(GRAPHENE_SIMD_X86)
  return __builtin_cpu_supports("sha") != 0 && __builtin_cpu_supports("sse4.1") != 0;
#else
  return false;
#endif
}

const Kernels* table_for(Isa isa) noexcept {
  switch (isa) {
#if defined(GRAPHENE_SIMD_X86)
    case Isa::kShaNi:
      return &detail::sha_ni_kernels();
#endif
    default:
      return &detail::portable_kernels();
  }
}

Isa pick_auto() noexcept { return cpu_has_sha_ni() ? Isa::kShaNi : Isa::kPortable; }

/// GRAPHENE_SIMD: off|portable -> portable; unset or anything else -> auto.
Isa pick_startup_isa() noexcept {
  const char* env = std::getenv("GRAPHENE_SIMD");
  if (env != nullptr && (std::strcmp(env, "off") == 0 || std::strcmp(env, "portable") == 0)) {
    return Isa::kPortable;
  }
  return pick_auto();
}

struct Dispatch {
  std::atomic<const Kernels*> table{nullptr};
  std::atomic<Isa> isa{Isa::kPortable};
};

Dispatch& dispatch() noexcept {
  static Dispatch d;
  return d;
}

const Kernels* resolve() noexcept {
  Dispatch& d = dispatch();
  const Isa isa = pick_startup_isa();
  const Kernels* table = table_for(isa);
  d.isa.store(isa, std::memory_order_relaxed);
  // Release pairs with the acquire in active(): an override racing first use
  // still leaves a fully-initialized table visible.
  d.table.store(table, std::memory_order_release);
  return table;
}

}  // namespace

const Kernels& active() noexcept {
  const Kernels* table = dispatch().table.load(std::memory_order_acquire);
  if (table == nullptr) table = resolve();
  return *table;
}

Isa active_isa() noexcept {
  static_cast<void>(active());  // force resolution
  return dispatch().isa.load(std::memory_order_relaxed);
}

Isa detected_isa() noexcept { return pick_auto(); }

bool isa_available(Isa isa) noexcept {
  switch (isa) {
    case Isa::kPortable:
      return true;
    case Isa::kShaNi:
      return cpu_has_sha_ni();
  }
  return false;
}

const Kernels& kernels_for(Isa isa) noexcept {
  return isa_available(isa) ? *table_for(isa) : detail::portable_kernels();
}

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kPortable:
      return "portable";
    case Isa::kShaNi:
      return "sha-ni";
  }
  return "unknown";
}

ScopedIsaOverride::ScopedIsaOverride(Isa isa) noexcept : prev_(active_isa()) {
  if (!isa_available(isa)) isa = Isa::kPortable;
  Dispatch& d = dispatch();
  d.isa.store(isa, std::memory_order_relaxed);
  d.table.store(table_for(isa), std::memory_order_release);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  Dispatch& d = dispatch();
  d.isa.store(prev_, std::memory_order_relaxed);
  d.table.store(table_for(prev_), std::memory_order_release);
}

}  // namespace graphene::util::simd
