// Reusable per-thread workspace arenas for the alignment hot path.
//
// The difference kernels used to re-allocate and zero-fill every DP buffer
// on every call — a per-call tax that dwarfs the per-iteration work the
// paper's re-mapped layout (§4.3.1) removes. A KernelArena owns growable
// buffers whose capacity is high-water-marked per thread, so steady-state
// alignment performs ZERO heap allocations and ZERO memsets:
//
//  - U/Y/V/X are handed back dirty. Every valid cell of the
//    anti-diagonal trapezoid is boundary-injected or written by the
//    kernel before any valid lane reads it; SIMD overrun lanes
//    beyond a diagonal's end only ever read and write slots that are dead
//    for the rest of the alignment (re-injected at the next diagonal or
//    inside the kLanePad tail), so stale bytes can never reach a result.
//  - `dirs` is never zero-filled: backtrack only visits trapezoid cells,
//    all of which the kernel wrote this call.
//  - `diag_off` is recomputed only when (tlen, qlen) changes.
//  - Only the sequence prefixes (tp, reversed qr) are re-initialized.
//
// The dirs layout pads every diagonal's row to the widest vector width
// (kLanePad): diag_off[r+1] - diag_off[r] = row_len(r) + kLanePad, so the
// SIMD kernels emit direction bytes with direct unaligned vector stores
// instead of a stack-buffer bounce + memcpy per chunk. The pad of row r
// absorbs the overrun; row r+1 starts after it.
//
// Growth is the ONLY allocation path and reports its true byte footprint
// through check_dp_alloc ("align.dp.alloc" fault site), so allocation
// failure is injectable and the arena is left untouched when the site
// fires (a retry re-attempts the same growth).
//
// Thread safety: an arena is single-threaded. Use one per worker thread
// (the service threads own theirs) or KernelArena::for_thread().
#pragma once

#include <cstddef>
#include <vector>

#include "align/kernel_api.hpp"

namespace manymap {

class DirsSpill;  // align/dirs_spill.hpp

namespace detail {

/// Write-then-read cursor for the diagonal-block dirs streaming mode.
/// During the DP, kernels obtain each diagonal's row pointer through
/// row(); when the next row would not fit the resident block, the filled
/// prefix is handed to the spill sink at its absolute dirs offset (the
/// same offsets diag_off describes) and the cursor rewinds. Rows keep
/// their kLanePad tails, so SIMD overruns stay inside the block exactly
/// as they do in the resident layout. Backtracking calls seal() once and
/// then reads direction bytes through at(), which reloads a sliding
/// window of spilled rows ending at the requested diagonal — the walk's
/// row index never increases, so each block is reloaded O(1) times.
/// Owned by the KernelArena; valid until the next prepare_* call.
struct DirsStream {
  DirsSpill* sink = nullptr;
  u8* block = nullptr;            ///< fixed-size resident block buffer
  u64 block_cap = 0;              ///< block bytes (>= one padded row)
  const u64* diag_off = nullptr;  ///< ndiag+1 offsets (sentinel at [ndiag])
  i32 ndiag = 0;
  i32 tlen = 0;
  i32 qlen = 0;
  i32 band = 0;  ///< static band half-width the rows were laid out for
  u64 base_off = 0;  ///< absolute dirs offset of block[0] (write side)
  u64 fill = 0;      ///< bytes of the current block already written
  u64 spill_blocks = 0;
  u64 spill_bytes = 0;
  i32 win_lo = 0, win_hi = -1;  ///< inclusive loaded row window (read side)

  /// Write side: row pointer for diagonal r (rows must be requested in
  /// increasing order, as every kernel does). Spills on overflow.
  u8* row(i32 r);
  /// Flush the tail once the DP is done so every row is readable.
  void seal();
  /// True when nothing was ever spilled: the whole dirs area sits in
  /// `block` at its diag_off offsets and backtrack can run in place.
  bool in_memory() const { return spill_blocks == 0; }
  /// Read side: direction byte of cell (i, j); reloads the window when
  /// the cell's diagonal falls outside it.
  u8 at(i32 i, i32 j);

 private:
  void flush();
  void load_ending_at(i32 r);
};

/// Non-owning view of one prepared one-piece workspace. Pointers are valid
/// until the arena's next prepare_*/poison/release call.
struct DiffWorkspace {
  i8* U = nullptr;           ///< indexed by t (size tlen + pad)
  i8* Y = nullptr;
  i8* V = nullptr;           ///< mm2 layout: by t; manymap layout: by t'
  i8* X = nullptr;
  const u8* tp = nullptr;    ///< padded copy of target codes
  const u8* qr = nullptr;    ///< reversed padded copy of query codes
  u8* dirs = nullptr;        ///< per-cell direction bytes (resident path mode)
  const u64* diag_off = nullptr;  ///< dirs offset of each padded diagonal row
  DirsStream* stream = nullptr;   ///< non-null in streaming path mode
};

class KernelArena {
 public:
  KernelArena() = default;
  KernelArena(const KernelArena&) = delete;
  KernelArena& operator=(const KernelArena&) = delete;

  /// Size and (re)initialize the one-piece workspace for `a`. Grows
  /// buffers when the problem exceeds the high-water mark (the only
  /// allocation path; reports through check_dp_alloc) and refreshes the
  /// sequence copies; everything else is reused dirty.
  DiffWorkspace prepare_diff(const DiffArgs& a, bool manymap_layout);

  /// Number of buffer growth events since construction (0 in steady state).
  u64 growth_events() const { return growth_events_; }
  /// Bytes currently reserved across all buffers (the high-water mark).
  u64 reserved_bytes() const;

  /// Overwrite every reserved byte with `byte` and invalidate the cached
  /// diag_off table. Tests use this to prove dirty reuse is bit-exact.
  void poison(u8 byte);
  /// Free all reserved memory (a thread that just aligned a huge pair can
  /// hand the pages back).
  void release();
  /// Shrink toward `max_bytes` by freeing whole buffers largest-first
  /// (dirs dominates after a path-mode call) until reserved_bytes() fits
  /// or nothing is left. Returns the bytes freed (0 when already under).
  /// The next call simply re-grows; results stay bit-exact.
  u64 trim(u64 max_bytes);

  /// Total dirs bytes of the padded-row layout for a tlen × qlen pair:
  /// tlen·qlen cells + (tlen+qlen-1)·kLanePad pad. This is the resident
  /// cost of a path-mode alignment without streaming, and the basis for
  /// the service's per-request footprint estimates. band > 0 bounds each
  /// row at the 2·band+1 static band width, shrinking the footprint from
  /// O(|T|·|Q|) to O(band·(|T|+|Q|)) (a slight over-estimate: the banded
  /// layout's exact row widths are what refresh_diag_off computes).
  static u64 dirs_footprint(i32 tlen, i32 qlen, i32 band = 0);
  /// Resident dirs block bytes a streaming path-mode call reserves
  /// (block_rows = 0 picks the ~8 MiB default; clamped to the full
  /// footprint, floored at one padded row — a banded row for band > 0).
  static u64 stream_block_bytes(i32 tlen, i32 qlen, i32 block_rows, i32 band = 0);

  /// The calling thread's shared arena (lazily constructed).
  static KernelArena& for_thread();

 private:
  void refresh_diag_off(i32 tlen, i32 qlen, i32 band);
  /// Point the streaming cursor at the freshly prepared block buffer.
  DirsStream* init_stream(i32 tlen, i32 qlen, DirsSpill* spill, i32 block_rows,
                          i32 band);
  /// Grow sequence/DP/dirs buffers to the requested sizes, charging the
  /// true footprint of every grown buffer to check_dp_alloc first (so an
  /// injected failure leaves the arena unchanged).
  void reserve_diff(const DiffArgs& a, bool manymap_layout);
  void copy_sequences(const u8* target, i32 tlen, const u8* query, i32 qlen);

  template <class T>
  static u64 deficit(const std::vector<T>& b, std::size_t n) {
    return b.size() < n ? static_cast<u64>(n) * sizeof(T) : 0;
  }
  template <class T>
  void grow(std::vector<T>& b, std::size_t n) {
    if (b.size() < n) {
      b.resize(n);
      ++growth_events_;
    }
  }

  std::vector<i8> u_, y_, v_, x_;
  std::vector<u8> tp_, qr_, dirs_;
  std::vector<u64> diag_off_;
  i32 off_tlen_ = -1, off_qlen_ = -1, off_band_ = -1;  ///< cached diag_off key
  u64 growth_events_ = 0;
  DirsStream stream_;  ///< streaming cursor (live between prepare and backtrack)
};

}  // namespace detail
}  // namespace manymap
