#include "simt/kernels.hpp"

#include <algorithm>

#include "align/diff_common.hpp"

namespace manymap {
namespace simt {

namespace {

using detail::diag_end;
using detail::diag_start;

/// Per-cell DP update shared by both kernel forms (identical math to the
/// CPU kernels, int8 difference arrays).
struct CellUpdate {
  i8 u, v, x, y;
  u8 dir;
};

inline CellUpdate update_cell(i32 sc, i8 vt, i8 xt, i8 ut, i8 yt, i32 q, i32 qe) {
  const i32 aa = xt + vt;
  const i32 bb = yt + ut;
  i32 z = sc;
  u8 d = detail::kDirDiag;
  if (aa > z) {
    z = aa;
    d = detail::kDirDel;
  }
  if (bb > z) {
    z = bb;
    d = detail::kDirIns;
  }
  CellUpdate c;
  c.u = detail::sat_i8(z - vt);
  c.v = detail::sat_i8(z - ut);
  i32 xa = aa - z + q;
  if (xa > 0) d |= detail::kExtDel; else xa = 0;
  c.x = detail::sat_i8(xa - qe);
  i32 yb = bb - z + q;
  if (yb > 0) d |= detail::kExtIns; else yb = 0;
  c.y = detail::sat_i8(yb - qe);
  c.dir = d;
  return c;
}

}  // namespace

u64 gpu_kernel_global_bytes(i32 tlen, i32 qlen, bool with_cigar) {
  const u64 arrays = 4ULL * (static_cast<u64>(std::max(tlen, qlen)) + 1);
  const u64 seqs = static_cast<u64>(tlen) + static_cast<u64>(qlen);
  const u64 dirs = with_cigar ? static_cast<u64>(tlen) * static_cast<u64>(qlen) : 0;
  return arrays + seqs + dirs + 4096;  // +control structures
}

GpuAlignResult gpu_align(const DiffArgs& a, Layout layout, const DeviceSpec& spec,
                         u32 threads) {
  GpuAlignResult out;
  if (detail::handle_degenerate(a, out.result)) return out;
  MM_REQUIRE(threads > 0 && threads <= spec.max_block_threads, "bad thread count");
  MM_REQUIRE(a.params.fits_int8(), "scores too large for int8 difference kernels");

  const i32 tlen = a.tlen, qlen = a.qlen;
  const i32 q = a.params.gap_open, e = a.params.gap_ext;
  const i32 qe = q + e;
  const i8 init_first = static_cast<i8>(-qe);
  const i8 init_rest = static_cast<i8>(-e);
  const ScoreMatrix sm(a.params);
  const bool manymap_layout = layout == Layout::kManymap;

  // Host staging buffers come from the caller's arena when provided (the
  // device-side memory_pool already amortizes its own allocations).
  detail::KernelArena local;
  detail::KernelArena& arena = a.arena != nullptr ? *a.arena : local;
  const detail::DiffWorkspace ws = arena.prepare_diff(a, manymap_layout);
  i8* U = ws.U;
  i8* Y = ws.Y;
  i8* V = ws.V;
  i8* X = ws.X;
  const u8* T = ws.tp;
  const u8* Qr = ws.qr;

  // Memory placement: DP arrays + sequence tiles in shared memory if they
  // fit, else global (§4.5.2).
  const u64 array_bytes = 4ULL * (static_cast<u64>(std::max(tlen, qlen)) + 1) +
                          static_cast<u64>(tlen) + 2ULL * static_cast<u64>(qlen);
  const bool shared = array_bytes <= spec.shared_mem_per_block;
  Block block(threads, spec);
  block.set_footprint(shared ? array_bytes : 0, gpu_kernel_global_bytes(tlen, qlen, a.with_cigar));
  out.used_shared = shared;
  // Direction bytes always live in global memory (quadratic size).
  const bool dirs_shared = false;

  detail::BorderTracker track(tlen, qlen, a.params);
  // Banded runs (a.band > 0) walk the BandTracker's live lane interval
  // instead of the full diagonal — only in-band lanes are staged and
  // computed on the device, exactly like the CPU kernels' banded variants.
  const bool banded = a.band > 0;
  detail::BandTracker btrack(tlen, qlen, a.band, a.zdrop, a.mode, a.params);
  // Per-lane registers for the read phase.
  std::vector<i8> vt_reg(threads), xt_reg(threads), ut_reg(threads), yt_reg(threads);

  for (i32 r = 0; r < tlen + qlen - 1; ++r) {
    const i32 st = diag_start(r, qlen);
    const i32 en = diag_end(r, tlen);
    const i32 shift = qlen - r;
    const i32 qoff = qlen - 1 - r;
    i32 lo = st, hi = en, row0 = st;
    if (banded) {
      if (!btrack.begin_diagonal(r)) break;
      lo = btrack.lo;
      hi = btrack.hi;
      row0 = btrack.blo;
    }

    // Boundary injection (host-side in the real kernel's prologue).
    i8 tmp_v = 0, tmp_x = 0;  // the Fig. 4a carry register
    if (manymap_layout) {
      if (banded) {
        if (lo == 0) {
          V[shift] = (r == 0) ? init_first : init_rest;
          X[shift] = init_first;
        } else if (!btrack.lo_adv) {  // wall: lane lo-1 left the band
          V[lo + shift] = init_first;
          X[lo + shift] = init_first;
        }  // else: slot lo+shift already holds lane lo-1's genuine values
      } else if (st == 0) {
        V[shift] = (r == 0) ? init_first : init_rest;
        X[shift] = init_first;
      }
    } else {
      if (banded) {
        if (lo > 0 && btrack.lo_adv) {
          tmp_v = V[lo - 1];  // lane lo-1 was live on the prev diagonal
          tmp_x = X[lo - 1];
        } else {
          // lo == 0: matrix boundary; lo > 0 stalled: wall injection.
          tmp_v = (r == 0 || lo > 0) ? init_first : init_rest;
          tmp_x = init_first;
        }
      } else if (st == 0) {
        tmp_v = (r == 0) ? init_first : init_rest;
        tmp_x = init_first;
      } else {
        tmp_v = V[st - 1];
        tmp_x = X[st - 1];
      }
    }
    if (banded) {
      if (btrack.hi_adv) {  // lane hi is new: boundary or wall injection
        U[hi] = (hi == r && r != 0) ? init_rest : init_first;
        Y[hi] = init_first;
      }
    } else if (en == r) {
      U[en] = (r == 0) ? init_first : init_rest;
      Y[en] = init_first;
    }
    u8* dir_row =
        a.with_cigar ? ws.dirs + ws.diag_off[static_cast<std::size_t>(r)] : nullptr;

    for (i32 base = lo; base <= hi; base += static_cast<i32>(threads)) {
      const u32 active = static_cast<u32>(std::min<i32>(static_cast<i32>(threads), hi - base + 1));

      if (manymap_layout) {
        // Fig. 4b: uniform loads at t' = t - r + qlen.
        block.mem_op(active, shared, 4, [&](u32 lane) {
          const i32 t = base + static_cast<i32>(lane);
          vt_reg[lane] = V[t + shift];
          xt_reg[lane] = X[t + shift];
          ut_reg[lane] = U[t];
          yt_reg[lane] = Y[t];
        });
      } else {
        // Fig. 4a: lane 0 takes the carried tmp and refreshes it from the
        // chunk end; the rest read t-1. Divergent + barrier.
        const i8 next_tmp_v = V[std::min<i32>(base + static_cast<i32>(active) - 1, hi)];
        const i8 next_tmp_x = X[std::min<i32>(base + static_cast<i32>(active) - 1, hi)];
        block.divergent(
            active, [](u32 lane) { return lane == 0; },
            [&](u32 lane) {
              vt_reg[lane] = tmp_v;
              xt_reg[lane] = tmp_x;
            },
            [&](u32 lane) {
              const i32 t = base + static_cast<i32>(lane);
              vt_reg[lane] = V[t - 1];
              xt_reg[lane] = X[t - 1];
            });
        // v/x loads of the else-path plus the u/y loads of every lane.
        block.mem_op(active, shared, 4, [&](u32 lane) {
          const i32 t = base + static_cast<i32>(lane);
          ut_reg[lane] = U[t];
          yt_reg[lane] = Y[t];
        });
        tmp_v = next_tmp_v;
        tmp_x = next_tmp_x;
        block.sync();  // reads must complete before in-place writes
      }

      // Compute + write phase (identical for both forms).
      block.mem_op(active, shared, 4, [&](u32 lane) {
        const i32 t = base + static_cast<i32>(lane);
        const i32 sc = sm(T[t], Qr[qoff + t]);
        const CellUpdate c =
            update_cell(sc, vt_reg[lane], xt_reg[lane], ut_reg[lane], yt_reg[lane], q, qe);
        U[t] = c.u;
        Y[t] = c.y;
        if (manymap_layout) {
          V[t + shift] = c.v;
          X[t + shift] = c.x;
        } else {
          V[t] = c.v;
          X[t] = c.x;
        }
        if (dir_row != nullptr) dir_row[t - row0] = c.dir;
      });
      if (dir_row != nullptr) block.mem_op(active, dirs_shared, 1, [](u32) {});
      if (!manymap_layout) block.sync();  // writes visible before next chunk's reads
    }
    block.sync();  // diagonal barrier (both forms)

    if (banded) {
      if (dir_row != nullptr) {  // zdrop-retired lanes inside the static band
        for (i32 t = row0; t < lo; ++t) dir_row[t - row0] = detail::kDirPruned;
        for (i32 t = hi + 1; t <= btrack.bhi; ++t) dir_row[t - row0] = detail::kDirPruned;
      }
      const i8 v_lo = manymap_layout ? V[lo + shift] : V[lo];
      const i8 v_hi = manymap_layout ? V[hi + shift] : V[hi];
      btrack.after_diagonal(r, U[lo], v_lo, U[hi], v_hi);
      btrack.maybe_shrink([&](i32 t) { return U[t]; },
                          [&](i32 t) { return manymap_layout ? V[t + shift] : V[t]; });
    } else {
      const i8 v_en = manymap_layout ? V[en + shift] : V[en];
      const i8 v_st = manymap_layout ? V[st + shift] : V[st];
      track.after_diagonal(r, U[en], v_en, v_st, U[st]);
    }
  }

  if (banded) {
    out.result = detail::finish_banded(a, ws, btrack);
    out.cost = block.cost();
    return out;
  }

  out.result.cells = static_cast<u64>(tlen) * static_cast<u64>(qlen);
  if (a.mode == AlignMode::kGlobal) {
    out.result.score = track.h_bot;
    out.result.t_end = tlen - 1;
    out.result.q_end = qlen - 1;
  } else {
    out.result.score = track.best.score;
    out.result.t_end = track.best.i;
    out.result.q_end = track.best.j;
  }
  if (a.with_cigar)
    out.result.cigar =
        detail::backtrack(ws.dirs, ws.diag_off, tlen, qlen, out.result.t_end, out.result.q_end);
  out.cost = block.cost();
  return out;
}

KernelCost gpu_align_cost(i32 tlen, i32 qlen, Layout layout, const DeviceSpec& spec,
                          u32 threads, bool with_cigar, BlockCostModel model) {
  KernelCost cost;
  if (tlen == 0 || qlen == 0) return cost;
  const bool manymap_layout = layout == Layout::kManymap;
  const u64 array_bytes = 4ULL * (static_cast<u64>(std::max(tlen, qlen)) + 1) +
                          static_cast<u64>(tlen) + 2ULL * static_cast<u64>(qlen);
  const bool shared = array_bytes <= spec.shared_mem_per_block;
  cost.shared_bytes = shared ? array_bytes : 0;
  cost.global_bytes = gpu_kernel_global_bytes(tlen, qlen, with_cigar);

  const u32 warp = spec.warp_size;
  auto alu = [&](u32 active) {
    const u64 warps = (active + warp - 1) / warp;
    cost.warp_instructions += warps;
    cost.cycles += warps * model.alu_cycles;
  };
  auto mem = [&](u32 active, bool in_shared, u32 ops) {
    alu(active);
    const u64 warps = (active + warp - 1) / warp;
    cost.cycles += warps * ops * (in_shared ? model.shared_cycles : model.global_cycles);
  };
  auto sync = [&] {
    ++cost.syncs;
    cost.cycles += model.sync_cycles;
  };

  for (i32 r = 0; r < tlen + qlen - 1; ++r) {
    const i32 st = diag_start(r, qlen);
    const i32 en = diag_end(r, tlen);
    for (i32 base = st; base <= en; base += static_cast<i32>(threads)) {
      const u32 active =
          static_cast<u32>(std::min<i32>(static_cast<i32>(threads), en - base + 1));
      if (manymap_layout) {
        mem(active, shared, 4);  // read phase
      } else {
        ++cost.divergent_branches;  // Fig. 4a tid==0 branch
        cost.cycles += model.branch_cycles;
        alu(active);                     // then-path (lane 0)
        if (active >= 2) alu(active);    // else-path
        mem(active, shared, 4);          // v/x (else-path) + u/y reads
        sync();                          // reads before in-place writes
      }
      mem(active, shared, 4);  // compute + write phase
      if (with_cigar) mem(active, false, 1);
      if (!manymap_layout) sync();  // writes visible before next chunk
    }
    sync();  // diagonal barrier
  }
  return cost;
}

}  // namespace simt
}  // namespace manymap
