// AVX-512BW kernels (512-bit vectors, 64 int8 lanes), as used by manymap on
// the Xeon Gold CPU (§4.3.2: "we use AVX-512BW instructions, which can
// calculate 64 cells simultaneously").
#include <immintrin.h>

#include "align/diff_kernels.hpp"
#include "align/diff_simd_impl.hpp"

namespace manymap {
namespace detail {

namespace {

struct VecAvx512 {
  using vec = __m512i;
  /// Comparison result: a NATIVE k-register mask (one bit per byte lane).
  /// Earlier revisions emulated SSE-style byte-mask vectors by expanding
  /// every compare with vpmovm2b; keeping results in k-registers feeds
  /// masked blends/moves directly and keeps the vector ports free.
  using cmp = __mmask64;
  static constexpr i32 W = 64;

  static vec load(const void* p) { return _mm512_loadu_si512(p); }
  static void store(void* p, vec v) { _mm512_storeu_si512(p, v); }
  static vec set1(i8 x) { return _mm512_set1_epi8(x); }
  static vec zero() { return _mm512_setzero_si512(); }
  static vec adds(vec a, vec b) { return _mm512_adds_epi8(a, b); }
  static vec subs(vec a, vec b) { return _mm512_subs_epi8(a, b); }
  static cmp gt(vec a, vec b) { return _mm512_cmpgt_epi8_mask(a, b); }
  static cmp eq(vec a, vec b) { return _mm512_cmpeq_epi8_mask(a, b); }
  static cmp cmp_and(cmp a, cmp b) { return _kand_mask64(a, b); }
  static vec max(vec a, vec b) { return _mm512_max_epi8(a, b); }
  /// m ? a : b — one vpblendmb.
  static vec select(cmp m, vec a, vec b) { return _mm512_mask_blend_epi8(m, b, a); }
  /// m ? v : 0 — one zero-masked vmovdqu8.
  static vec mask_val(cmp m, vec v) { return _mm512_maskz_mov_epi8(m, v); }
  /// d | (m ? bits : 0). AVX-512BW has no byte-masked vpor, so mask the
  /// bits vector (zero-masked move) and OR — still two plain ops with the
  /// mask straight from the k-register, no vpmovm2b expansion.
  static vec or_bits(vec d, cmp m, vec bits) {
    return _mm512_or_si512(d, _mm512_maskz_mov_epi8(m, bits));
  }
  /// Full-width byte shift needs a lane rotation plus per-lane alignr plus
  /// a masked patch of byte 0 — the carry overhead at 512-bit width.
  static vec shift_in(vec v, i8 carry) {
    const vec rot = _mm512_shuffle_i32x4(v, v, _MM_SHUFFLE(2, 1, 0, 3));
    vec s = _mm512_alignr_epi8(v, rot, 15);
    const vec c = _mm512_castsi128_si512(
        _mm_cvtsi32_si128(static_cast<int>(static_cast<u8>(carry))));
    return _mm512_mask_mov_epi8(s, 1, c);
  }
  static i8 last_lane(vec v) {
    const __m128i hi = _mm512_extracti32x4_epi32(v, 3);
    return static_cast<i8>(_mm_extract_epi16(hi, 7) >> 8);
  }
};

}  // namespace

AlignResult align_avx512_mm2(const DiffArgs& a) { return simd_align<VecAvx512, false>(a); }
AlignResult align_avx512_manymap(const DiffArgs& a) { return simd_align<VecAvx512, true>(a); }

}  // namespace detail
}  // namespace manymap
