// Internal registry of the concrete kernel implementations.
// Each is a standalone translation unit so per-file SIMD flags apply.
#pragma once

#include "align/kernel_api.hpp"

namespace manymap {
namespace detail {

AlignResult align_scalar_mm2(const DiffArgs& a);
AlignResult align_scalar_manymap(const DiffArgs& a);
AlignResult align_sse2_mm2(const DiffArgs& a);
AlignResult align_sse2_manymap(const DiffArgs& a);
#if MANYMAP_HAVE_AVX2_KERNELS
AlignResult align_avx2_mm2(const DiffArgs& a);
AlignResult align_avx2_manymap(const DiffArgs& a);
#endif
#if MANYMAP_HAVE_AVX512_KERNELS
AlignResult align_avx512_mm2(const DiffArgs& a);
AlignResult align_avx512_manymap(const DiffArgs& a);
#endif

}  // namespace detail
}  // namespace manymap
