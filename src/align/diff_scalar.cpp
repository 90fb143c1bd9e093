// Scalar implementations of the difference-based anti-diagonal DP.
//
// align_scalar_mm2     — minimap2's layout (Fig. 2b): v/x indexed by t, the
//                        value at t-1 must be carried through a temporary
//                        (`v1`, `x1`) because it is overwritten in place.
// align_scalar_manymap — the paper's layout (Fig. 2c, Alg. 1): v/x indexed
//                        by t' = t - r + |Q|; reads and writes hit the same
//                        slot, so no temporaries are needed.
//
// Both come in an unbanded and a banded flavor, selected by DiffArgs::band
// through a compile-time kBanded switch so the unbanded hot loop is
// unchanged. The banded flavor confines each diagonal to the BandTracker's
// live lane interval; lanes whose previous-diagonal neighbor lies outside
// the band receive wall injections at the minimum legal difference values
// (-(q+e), the same magnitude as the matrix-boundary injections), which
// keeps the banded H a lower bound of the full H and the int8 envelope
// identical to the unbanded kernels.
#include "align/diff_common.hpp"
#include "align/diff_kernels.hpp"

namespace manymap {
namespace detail {

namespace {

struct Consts {
  i32 q, e, qe;
  i8 vx_init_first, vx_init_rest, xy_init;
  explicit Consts(const ScoreParams& p)
      : q(p.gap_open),
        e(p.gap_ext),
        qe(p.gap_open + p.gap_ext),
        vx_init_first(static_cast<i8>(-(p.gap_open + p.gap_ext))),
        vx_init_rest(static_cast<i8>(-p.gap_ext)),
        xy_init(static_cast<i8>(-(p.gap_open + p.gap_ext))) {}
};

AlignResult finish(const DiffArgs& a, const DiffWorkspace& ws, const BorderTracker& track) {
  AlignResult out;
  out.cells = static_cast<u64>(a.tlen) * static_cast<u64>(a.qlen);
  if (a.mode == AlignMode::kGlobal) {
    out.score = track.h_bot;
    out.t_end = a.tlen - 1;
    out.q_end = a.qlen - 1;
  } else {
    out.score = track.best.score;
    out.t_end = track.best.i;
    out.q_end = track.best.j;
  }
  if (a.with_cigar)
    out.cigar = backtrack_ws(ws, a.tlen, a.qlen, out.t_end, out.q_end);
  return out;
}

u8* dir_row_of(const DiffWorkspace& ws, const DiffArgs& a, i32 r) {
  (void)a;
  return dirs_row(ws, r);
}

}  // namespace

AlignResult finish_banded(const DiffArgs& a, const DiffWorkspace& ws,
                          const BandTracker& track) {
  AlignResult out;
  out.cells = track.cells;
  out.zdropped = track.zdropped;
  if (a.mode == AlignMode::kGlobal) {
    out.score = track.h_hi;  // == H(corner) whenever the interval survived
    out.t_end = a.tlen - 1;
    out.q_end = a.qlen - 1;
    out.band_hit = track.hit(out.score);
  } else if (!track.best.any) {
    out.band_hit = true;  // zdrop retired every border candidate
    return out;
  } else {
    out.score = track.best.score;
    out.t_end = track.best.i;
    out.q_end = track.best.j;
    out.band_hit = track.hit(out.score);
  }
  if (out.band_hit) return out;  // caller reruns unbanded; skip the walk
  if (a.with_cigar)
    out.cigar = backtrack_ws(ws, a.tlen, a.qlen, out.t_end, out.q_end, a.band);
  return out;
}

namespace {

template <bool kBanded>
AlignResult scalar_mm2_impl(const DiffArgs& a) {
  AlignResult out;
  if (handle_degenerate(a, out)) return out;
  MM_REQUIRE(a.params.fits_int8(), "scores too large for int8 difference kernels");

  KernelArena local;
  KernelArena& arena = a.arena != nullptr ? *a.arena : local;
  const DiffWorkspace ws = arena.prepare_diff(a, /*manymap_layout=*/false);
  const Consts c(a.params);
  const ScoreMatrix sm(a.params);
  const i32 tlen = a.tlen, qlen = a.qlen;
  i8* U = ws.U;
  i8* Y = ws.Y;
  i8* V = ws.V;
  i8* X = ws.X;
  const u8* T = ws.tp;
  const u8* Qr = ws.qr;
  [[maybe_unused]] BorderTracker track(tlen, qlen, a.params);
  [[maybe_unused]] BandTracker btrack(tlen, qlen, a.band, a.zdrop, a.mode, a.params);

  for (i32 r = 0; r < tlen + qlen - 1; ++r) {
    const i32 st = diag_start(r, qlen);
    const i32 en = diag_end(r, tlen);
    i32 lo = st, hi = en, row0 = st;
    // Carried "left" values of v/x for t = lo (minimap2's temporary).
    i8 v1, x1;
    if constexpr (kBanded) {
      if (!btrack.begin_diagonal(r)) break;
      lo = btrack.lo;
      hi = btrack.hi;
      row0 = btrack.blo;
      if (lo > 0 && btrack.lo_adv) {
        v1 = V[lo - 1];  // lane lo-1 was live on the previous diagonal
        x1 = X[lo - 1];
      } else {
        // lo == 0: matrix boundary; lo > 0 stalled: wall (lane lo-1 is
        // outside the live band, injected at the minimum legal diffs).
        v1 = (r == 0 || lo > 0) ? c.vx_init_first : c.vx_init_rest;
        x1 = c.xy_init;
      }
      if (btrack.hi_adv) {  // lane hi is new: boundary or wall injection
        U[hi] = (hi == r && r != 0) ? c.vx_init_rest : c.vx_init_first;
        Y[hi] = c.xy_init;
      }
    } else {
      if (st == 0) {
        v1 = (r == 0) ? c.vx_init_first : c.vx_init_rest;
        x1 = c.xy_init;
      } else {
        v1 = V[st - 1];
        x1 = X[st - 1];
      }
      if (en == r) {  // a new target row enters the band
        U[en] = (r == 0) ? c.vx_init_first : c.vx_init_rest;
        Y[en] = c.xy_init;
      }
    }
    u8* dir_row = dir_row_of(ws, a, r);
    const i32 qoff = qlen - 1 - r;
    for (i32 t = lo; t <= hi; ++t) {
      const i32 sc = sm(T[t], Qr[qoff + t]);
      const i8 vt = v1;
      const i8 xt = x1;
      v1 = V[t];  // save pre-update values for the next iteration
      x1 = X[t];
      const i8 ut = U[t];
      const i8 yt = Y[t];
      const i32 aa = xt + vt;
      const i32 bb = yt + ut;
      i32 z = sc;
      u8 d = kDirDiag;
      if (aa > z) {
        z = aa;
        d = kDirDel;
      }
      if (bb > z) {
        z = bb;
        d = kDirIns;
      }
      U[t] = sat_i8(z - vt);
      V[t] = sat_i8(z - ut);
      i32 xa = aa - z + c.q;
      if (xa > 0) d |= kExtDel; else xa = 0;
      X[t] = sat_i8(xa - c.qe);
      i32 yb = bb - z + c.q;
      if (yb > 0) d |= kExtIns; else yb = 0;
      Y[t] = sat_i8(yb - c.qe);
      if (dir_row) dir_row[t - row0] = d;
    }
    if constexpr (kBanded) {
      if (dir_row) {  // zdrop-retired lanes inside the static band
        for (i32 t = row0; t < lo; ++t) dir_row[t - row0] = kDirPruned;
        for (i32 t = hi + 1; t <= btrack.bhi; ++t) dir_row[t - row0] = kDirPruned;
      }
      btrack.after_diagonal(r, U[lo], V[lo], U[hi], V[hi]);
      btrack.maybe_shrink([&](i32 t) { return U[t]; }, [&](i32 t) { return V[t]; });
    } else {
      track.after_diagonal(r, U[en], V[en], V[st], U[st]);
    }
  }
  if constexpr (kBanded) return finish_banded(a, ws, btrack);
  return finish(a, ws, track);
}

template <bool kBanded>
AlignResult scalar_manymap_impl(const DiffArgs& a) {
  AlignResult out;
  if (handle_degenerate(a, out)) return out;
  MM_REQUIRE(a.params.fits_int8(), "scores too large for int8 difference kernels");

  KernelArena local;
  KernelArena& arena = a.arena != nullptr ? *a.arena : local;
  const DiffWorkspace ws = arena.prepare_diff(a, /*manymap_layout=*/true);
  const Consts c(a.params);
  const ScoreMatrix sm(a.params);
  const i32 tlen = a.tlen, qlen = a.qlen;
  i8* U = ws.U;
  i8* Y = ws.Y;
  i8* V = ws.V;  // indexed by t' = t - r + qlen
  i8* X = ws.X;
  const u8* T = ws.tp;
  const u8* Qr = ws.qr;
  [[maybe_unused]] BorderTracker track(tlen, qlen, a.params);
  [[maybe_unused]] BandTracker btrack(tlen, qlen, a.band, a.zdrop, a.mode, a.params);

  for (i32 r = 0; r < tlen + qlen - 1; ++r) {
    const i32 st = diag_start(r, qlen);
    const i32 en = diag_end(r, tlen);
    const i32 shift = qlen - r;  // t' = t + shift
    i32 lo = st, hi = en, row0 = st;
    if constexpr (kBanded) {
      if (!btrack.begin_diagonal(r)) break;
      lo = btrack.lo;
      hi = btrack.hi;
      row0 = btrack.blo;
      if (lo == 0) {  // top boundary enters at slot t' = qlen - r
        V[shift] = (r == 0) ? c.vx_init_first : c.vx_init_rest;
        X[shift] = c.xy_init;
      } else if (!btrack.lo_adv) {  // wall: lane lo-1 left the band
        V[lo + shift] = c.vx_init_first;
        X[lo + shift] = c.xy_init;
      }  // else: slot lo+shift already holds lane lo-1's genuine values
      if (btrack.hi_adv) {
        U[hi] = (hi == r && r != 0) ? c.vx_init_rest : c.vx_init_first;
        Y[hi] = c.xy_init;
      }
    } else {
      if (st == 0) {  // top boundary enters at slot t' = qlen - r
        V[shift] = (r == 0) ? c.vx_init_first : c.vx_init_rest;
        X[shift] = c.xy_init;
      }
      if (en == r) {
        U[en] = (r == 0) ? c.vx_init_first : c.vx_init_rest;
        Y[en] = c.xy_init;
      }
    }
    u8* dir_row = dir_row_of(ws, a, r);
    const i32 qoff = qlen - 1 - r;
    for (i32 t = lo; t <= hi; ++t) {
      const i32 tpi = t + shift;
      const i32 sc = sm(T[t], Qr[qoff + t]);
      const i8 vt = V[tpi];  // read and write the same slot: no carry
      const i8 xt = X[tpi];
      const i8 ut = U[t];
      const i8 yt = Y[t];
      const i32 aa = xt + vt;
      const i32 bb = yt + ut;
      i32 z = sc;
      u8 d = kDirDiag;
      if (aa > z) {
        z = aa;
        d = kDirDel;
      }
      if (bb > z) {
        z = bb;
        d = kDirIns;
      }
      U[t] = sat_i8(z - vt);
      V[tpi] = sat_i8(z - ut);
      i32 xa = aa - z + c.q;
      if (xa > 0) d |= kExtDel; else xa = 0;
      X[tpi] = sat_i8(xa - c.qe);
      i32 yb = bb - z + c.q;
      if (yb > 0) d |= kExtIns; else yb = 0;
      Y[t] = sat_i8(yb - c.qe);
      if (dir_row) dir_row[t - row0] = d;
    }
    if constexpr (kBanded) {
      if (dir_row) {
        for (i32 t = row0; t < lo; ++t) dir_row[t - row0] = kDirPruned;
        for (i32 t = hi + 1; t <= btrack.bhi; ++t) dir_row[t - row0] = kDirPruned;
      }
      btrack.after_diagonal(r, U[lo], V[lo + shift], U[hi], V[hi + shift]);
      btrack.maybe_shrink([&](i32 t) { return U[t]; },
                          [&](i32 t) { return V[t + shift]; });
    } else {
      track.after_diagonal(r, U[en], V[en + shift], V[st + shift], U[st]);
    }
  }
  if constexpr (kBanded) return finish_banded(a, ws, btrack);
  return finish(a, ws, track);
}

}  // namespace

AlignResult align_scalar_mm2(const DiffArgs& a) {
  return a.band > 0 ? scalar_mm2_impl<true>(a) : scalar_mm2_impl<false>(a);
}

AlignResult align_scalar_manymap(const DiffArgs& a) {
  return a.band > 0 ? scalar_manymap_impl<true>(a) : scalar_manymap_impl<false>(a);
}

}  // namespace detail
}  // namespace manymap
