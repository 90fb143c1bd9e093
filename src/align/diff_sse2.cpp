// SSE2 kernels (128-bit vectors, 16 int8 lanes). Matches minimap2's
// original vector width. SSE2 lacks pmaxsb/pblendvb so max/blend are
// emulated with compare+mask, exactly as ksw2 does.
#include <emmintrin.h>

#include "align/diff_kernels.hpp"
#include "align/diff_simd_impl.hpp"

namespace manymap {
namespace detail {

namespace {

struct VecSse2 {
  using vec = __m128i;
  /// Comparison result: a 0x00/0xFF byte-mask vector (SSE2 has no mask
  /// registers). AVX-512 overrides this with __mmask64.
  using cmp = __m128i;
  static constexpr i32 W = 16;

  static vec load(const void* p) { return _mm_loadu_si128(static_cast<const __m128i*>(p)); }
  static void store(void* p, vec v) { _mm_storeu_si128(static_cast<__m128i*>(p), v); }
  static vec set1(i8 x) { return _mm_set1_epi8(x); }
  static vec zero() { return _mm_setzero_si128(); }
  static vec adds(vec a, vec b) { return _mm_adds_epi8(a, b); }
  static vec subs(vec a, vec b) { return _mm_subs_epi8(a, b); }
  static cmp gt(vec a, vec b) { return _mm_cmpgt_epi8(a, b); }
  static cmp eq(vec a, vec b) { return _mm_cmpeq_epi8(a, b); }
  static cmp cmp_and(cmp a, cmp b) { return _mm_and_si128(a, b); }
  static vec max(vec a, vec b) {
    const cmp m = _mm_cmpgt_epi8(a, b);
    return select(m, a, b);
  }
  /// m ? a : b (SSE2 lacks pblendvb: and/andnot/or, exactly as ksw2 does).
  static vec select(cmp m, vec a, vec b) {
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
  }
  /// m ? v : 0.
  static vec mask_val(cmp m, vec v) { return _mm_and_si128(m, v); }
  /// d | (m ? bits : 0).
  static vec or_bits(vec d, cmp m, vec bits) {
    return _mm_or_si128(d, _mm_and_si128(m, bits));
  }
  /// [carry, v0, v1, ..., v14] — minimap2's inter-iteration carry splice.
  static vec shift_in(vec v, i8 carry) {
    const vec s = _mm_slli_si128(v, 1);
    return _mm_or_si128(s, _mm_cvtsi32_si128(static_cast<int>(static_cast<u8>(carry))));
  }
  static i8 last_lane(vec v) {
    return static_cast<i8>(_mm_extract_epi16(v, 7) >> 8);
  }
};

}  // namespace

AlignResult align_sse2_mm2(const DiffArgs& a) { return simd_align<VecSse2, false>(a); }
AlignResult align_sse2_manymap(const DiffArgs& a) { return simd_align<VecSse2, true>(a); }

}  // namespace detail
}  // namespace manymap
