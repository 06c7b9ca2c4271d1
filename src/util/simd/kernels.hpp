// Internal: per-ISA kernel table constructors. Only dispatch.cpp and the
// ISA translation units include this; external callers go through simd.hpp.
#pragma once

#include "util/simd/simd.hpp"

namespace graphene::util::simd::detail {

[[nodiscard]] const Kernels& portable_kernels() noexcept;

#if defined(GRAPHENE_SIMD_HAVE_AVX2)
[[nodiscard]] const Kernels& avx2_kernels() noexcept;
#endif

}  // namespace graphene::util::simd::detail
