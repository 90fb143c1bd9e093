// Generic SIMD implementation of the difference-based DP, parameterized by
// a vector-traits type VT (one per ISA: SSE2 / AVX2 / AVX-512BW) and by the
// memory layout.
//
// The layouts differ in exactly one place — how v/x for the previous
// diagonal are obtained:
//  - minimap2 layout (Fig. 3a): the values live one slot to the LEFT, which
//    this diagonal has already overwritten, so each chunk must be built by
//    shifting the freshly loaded vector and splicing in a carried lane
//    (VT::shift_in). This is the extra per-iteration work the paper's
//    revised formula removes.
//  - manymap layout (Fig. 3b): v/x live at the SAME slot t' = t - r + |Q|;
//    a plain unaligned load suffices.
//
// Comparisons use the trait's `cmp` type: byte-mask vectors on SSE2/AVX2,
// native __mmask64 on AVX-512BW (no movm round-trips). Direction bytes are
// stored with direct unaligned vector stores — the arena pads every dirs
// row by kLanePad, so the up-to-(W-1)-byte overrun of a row's final chunk
// lands in that row's dead tail, never in the next row.
//
// Banded runs (DiffArgs::band > 0) reuse the same chunk loop over the
// BandTracker's live lane interval. The final chunk may overrun past the
// high edge; those garbage lanes are safe because (a) every same-lane U/Y
// read at the next diagonal's new high lane is overwritten by the edge
// injection first, (b) v/x reads only ever look one lane BELOW the live
// interval, and (c) the in-band tail of the dirs row is stamped with
// kDirPruned after the vector loop, re-covering any overrun bytes.
//
// This header is included from per-ISA translation units compiled with the
// matching -m flags; it must not be included anywhere else.
#pragma once

#include "align/diff_common.hpp"

namespace manymap {
namespace detail {

template <class VT, bool kManymapLayout, bool kBanded>
AlignResult simd_align_impl(const DiffArgs& a) {
  AlignResult out;
  if (handle_degenerate(a, out)) return out;
  MM_REQUIRE(a.params.fits_int8(), "scores too large for int8 difference kernels");

  using vec = typename VT::vec;
  using msk = typename VT::cmp;
  constexpr i32 W = VT::W;
  static_assert(W <= kLanePad, "dirs row pad must absorb a full vector overrun");

  KernelArena local;
  KernelArena& arena = a.arena != nullptr ? *a.arena : local;
  const DiffWorkspace ws = arena.prepare_diff(a, kManymapLayout);
  const i32 tlen = a.tlen, qlen = a.qlen;
  const i32 q = a.params.gap_open, e = a.params.gap_ext;
  const i8 init_first = static_cast<i8>(-(q + e));
  const i8 init_rest = static_cast<i8>(-e);
  const i8 init_xy = static_cast<i8>(-(q + e));

  i8* U = ws.U;
  i8* Y = ws.Y;
  i8* V = ws.V;
  i8* X = ws.X;
  const u8* T = ws.tp;
  const u8* Qr = ws.qr;

  const vec match_v = VT::set1(static_cast<i8>(a.params.match));
  const vec mismatch_v = VT::set1(static_cast<i8>(-a.params.mismatch));
  const vec four_v = VT::set1(4);
  const vec q_v = VT::set1(static_cast<i8>(q));
  const vec qe_v = VT::set1(static_cast<i8>(-(q + e)));
  const vec zero_v = VT::zero();
  const vec one_v = VT::set1(1);
  const vec two_v = VT::set1(2);
  const vec ext_del_v = VT::set1(static_cast<i8>(kExtDel));
  const vec ext_ins_v = VT::set1(static_cast<i8>(kExtIns));

  [[maybe_unused]] BorderTracker track(tlen, qlen, a.params);
  [[maybe_unused]] BandTracker btrack(tlen, qlen, a.band, a.zdrop, a.mode, a.params);

  for (i32 r = 0; r < tlen + qlen - 1; ++r) {
    const i32 st = diag_start(r, qlen);
    const i32 en = diag_end(r, tlen);
    const i32 shift = qlen - r;  // manymap: t' = t + shift
    i32 lo = st, hi = en, row0 = st;

    i8 v_carry = 0, x_carry = 0;
    if constexpr (kBanded) {
      if (!btrack.begin_diagonal(r)) break;
      lo = btrack.lo;
      hi = btrack.hi;
      row0 = btrack.blo;
      if constexpr (kManymapLayout) {
        if (lo == 0) {
          V[shift] = (r == 0) ? init_first : init_rest;
          X[shift] = init_xy;
        } else if (!btrack.lo_adv) {  // wall: lane lo-1 left the band
          V[lo + shift] = init_first;
          X[lo + shift] = init_xy;
        }  // else: slot lo+shift already holds lane lo-1's genuine values
      } else {
        if (lo > 0 && btrack.lo_adv) {
          v_carry = V[lo - 1];  // lane lo-1 was live on the prev diagonal
          x_carry = X[lo - 1];
        } else {
          // lo == 0: matrix boundary; lo > 0 stalled: wall injection.
          v_carry = (r == 0 || lo > 0) ? init_first : init_rest;
          x_carry = init_xy;
        }
      }
      if (btrack.hi_adv) {  // lane hi is new: boundary or wall injection
        U[hi] = (hi == r && r != 0) ? init_rest : init_first;
        Y[hi] = init_xy;
      }
    } else {
      if constexpr (kManymapLayout) {
        if (st == 0) {
          V[shift] = (r == 0) ? init_first : init_rest;
          X[shift] = init_xy;
        }
      } else {
        if (st == 0) {
          v_carry = (r == 0) ? init_first : init_rest;
          x_carry = init_xy;
        } else {
          v_carry = V[st - 1];
          x_carry = X[st - 1];
        }
      }
      if (en == r) {
        U[en] = (r == 0) ? init_first : init_rest;
        Y[en] = init_xy;
      }
    }

    u8* dir_row = dirs_row(ws, r);
    const i32 qoff = qlen - 1 - r;

    for (i32 t = lo; t <= hi; t += W) {
      const vec Tv = VT::load(T + t);
      const vec Qv = VT::load(Qr + qoff + t);
      const msk is_match = VT::cmp_and(VT::eq(Tv, Qv), VT::gt(four_v, Tv));
      const vec sc = VT::select(is_match, match_v, mismatch_v);

      vec vt, xt;
      if constexpr (kManymapLayout) {
        vt = VT::load(V + t + shift);
        xt = VT::load(X + t + shift);
      } else {
        const vec vold = VT::load(V + t);
        const vec xold = VT::load(X + t);
        vt = VT::shift_in(vold, v_carry);
        xt = VT::shift_in(xold, x_carry);
        v_carry = VT::last_lane(vold);
        x_carry = VT::last_lane(xold);
      }
      const vec ut = VT::load(U + t);
      const vec yt = VT::load(Y + t);

      const vec aa = VT::adds(xt, vt);
      const vec bb = VT::adds(yt, ut);
      vec z = sc;
      const msk m1 = VT::gt(aa, z);
      z = VT::max(z, aa);
      const msk m2 = VT::gt(bb, z);
      z = VT::max(z, bb);

      VT::store(U + t, VT::subs(z, vt));
      if constexpr (kManymapLayout) {
        VT::store(V + t + shift, VT::subs(z, ut));
      } else {
        VT::store(V + t, VT::subs(z, ut));
      }
      const vec ea = VT::adds(VT::subs(aa, z), q_v);  // a - z + q
      const vec fb = VT::adds(VT::subs(bb, z), q_v);  // b - z + q
      const vec xnew = VT::adds(VT::max(ea, zero_v), qe_v);
      const vec ynew = VT::adds(VT::max(fb, zero_v), qe_v);
      if constexpr (kManymapLayout) {
        VT::store(X + t + shift, xnew);
      } else {
        VT::store(X + t, xnew);
      }
      VT::store(Y + t, ynew);

      if (dir_row) {
        vec d = VT::select(m2, two_v, VT::mask_val(m1, one_v));
        d = VT::or_bits(d, VT::gt(ea, zero_v), ext_del_v);
        d = VT::or_bits(d, VT::gt(fb, zero_v), ext_ins_v);
        VT::store(dir_row + (t - row0), d);
      }
    }

    if constexpr (kBanded) {
      if (dir_row) {  // zdrop-retired lanes inside the static band; also
                      // re-covers the final chunk's overrun garbage bytes
        for (i32 t = row0; t < lo; ++t) dir_row[t - row0] = kDirPruned;
        for (i32 t = hi + 1; t <= btrack.bhi; ++t) dir_row[t - row0] = kDirPruned;
      }
      const i8 v_lo = kManymapLayout ? V[lo + shift] : V[lo];
      const i8 v_hi = kManymapLayout ? V[hi + shift] : V[hi];
      btrack.after_diagonal(r, U[lo], v_lo, U[hi], v_hi);
      btrack.maybe_shrink([&](i32 t) { return U[t]; },
                          [&](i32 t) { return kManymapLayout ? V[t + shift] : V[t]; });
    } else {
      const i8 v_en = kManymapLayout ? V[en + shift] : V[en];
      const i8 v_st = kManymapLayout ? V[st + shift] : V[st];
      track.after_diagonal(r, U[en], v_en, v_st, U[st]);
    }
  }

  if constexpr (kBanded) return finish_banded(a, ws, btrack);

  out.cells = static_cast<u64>(tlen) * static_cast<u64>(qlen);
  if (a.mode == AlignMode::kGlobal) {
    out.score = track.h_bot;
    out.t_end = tlen - 1;
    out.q_end = qlen - 1;
  } else {
    out.score = track.best.score;
    out.t_end = track.best.i;
    out.q_end = track.best.j;
  }
  if (a.with_cigar)
    out.cigar = backtrack_ws(ws, tlen, qlen, out.t_end, out.q_end);
  return out;
}

template <class VT, bool kManymapLayout>
AlignResult simd_align(const DiffArgs& a) {
  return a.band > 0 ? simd_align_impl<VT, kManymapLayout, true>(a)
                    : simd_align_impl<VT, kManymapLayout, false>(a);
}

}  // namespace detail
}  // namespace manymap
