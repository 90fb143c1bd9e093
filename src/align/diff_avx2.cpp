// AVX2 kernels (256-bit vectors, 32 int8 lanes). The minimap2-layout
// variant pays the cross-lane shift penalty the paper highlights: AVX2 has
// no full-width byte shift, so the carry splice costs a permute plus an
// alignr plus an insert per loaded matrix per iteration (§5.2.1 explains
// why the AVX2 gap between the layouts is the largest).
#include <immintrin.h>

#include "align/diff_kernels.hpp"
#include "align/diff_simd_impl.hpp"

namespace manymap {
namespace detail {

namespace {

struct VecAvx2 {
  using vec = __m256i;
  using cmp = __m256i;  ///< 0x00/0xFF byte-mask vector
  static constexpr i32 W = 32;

  static vec load(const void* p) { return _mm256_loadu_si256(static_cast<const __m256i*>(p)); }
  static void store(void* p, vec v) { _mm256_storeu_si256(static_cast<__m256i*>(p), v); }
  static vec set1(i8 x) { return _mm256_set1_epi8(x); }
  static vec zero() { return _mm256_setzero_si256(); }
  static vec adds(vec a, vec b) { return _mm256_adds_epi8(a, b); }
  static vec subs(vec a, vec b) { return _mm256_subs_epi8(a, b); }
  static cmp gt(vec a, vec b) { return _mm256_cmpgt_epi8(a, b); }
  static cmp eq(vec a, vec b) { return _mm256_cmpeq_epi8(a, b); }
  static cmp cmp_and(cmp a, cmp b) { return _mm256_and_si256(a, b); }
  static vec max(vec a, vec b) { return _mm256_max_epi8(a, b); }
  /// m ? a : b.
  static vec select(cmp m, vec a, vec b) { return _mm256_blendv_epi8(b, a, m); }
  /// m ? v : 0.
  static vec mask_val(cmp m, vec v) { return _mm256_and_si256(m, v); }
  /// d | (m ? bits : 0).
  static vec or_bits(vec d, cmp m, vec bits) {
    return _mm256_or_si256(d, _mm256_and_si256(m, bits));
  }
  /// [carry, v0, ..., v30]: permute to move the low lane up, alignr within
  /// lanes, then patch lane 0 byte 0 — three extra shuffles per load.
  static vec shift_in(vec v, i8 carry) {
    const vec lo = _mm256_permute2x128_si256(v, v, 0x08);  // [zero, v_low]
    vec s = _mm256_alignr_epi8(v, lo, 15);
    s = _mm256_insert_epi8(s, carry, 0);
    return s;
  }
  static i8 last_lane(vec v) { return static_cast<i8>(_mm256_extract_epi8(v, 31)); }
};

}  // namespace

AlignResult align_avx2_mm2(const DiffArgs& a) { return simd_align<VecAvx2, false>(a); }
AlignResult align_avx2_manymap(const DiffArgs& a) { return simd_align<VecAvx2, true>(a); }

}  // namespace detail
}  // namespace manymap
