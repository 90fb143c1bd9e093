// Diagonal-block dirs streaming contract (align/dirs_spill.hpp + the
// DirsStream cursor in align/arena.hpp):
//  1. streamed-vs-resident equivalence — sweeping block heights (including
//     the degenerate 1-diagonal block and a block >= the whole matrix)
//     across every available diff ISA × both layouts ×
//     {global, extension}, score/end-cell/CIGAR must match the resident
//     path bit-for-bit;
//  2. the temp-file sink answers exactly like the in-memory sink;
//  3. the resident dirs block really is bounded (reserved bytes stay
//     near the block size, far below the full footprint);
//  4. KernelArena::trim drops the high-water footprint and subsequent
//     calls stay bit-exact and allocation-free once re-warmed;
//  5. the "align.dirs.spill" / "align.dirs.spill_io" fault sites fire on
//     the streaming path and a retry after the fault recovers (spill
//     offsets are idempotent).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/arena.hpp"
#include "align/diff_common.hpp"
#include "align/dirs_spill.hpp"
#include "align/kernel_api.hpp"
#include "base/random.hpp"
#include "fault/fault.hpp"

namespace manymap {
namespace {

using detail::dirs_spill_stats;
using detail::KernelArena;

std::vector<u8> random_seq(u64 seed, i32 n) {
  Rng rng(seed);
  std::vector<u8> s(static_cast<std::size_t>(n));
  for (auto& b : s) b = rng.base();
  return s;
}

std::vector<u8> mutate(u64 seed, const std::vector<u8>& t, double rate) {
  Rng rng(seed);
  std::vector<u8> q = t;
  for (auto& b : q)
    if (rng.bernoulli(rate)) b = rng.base();
  return q;
}

void expect_same(const AlignResult& got, const AlignResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.score, want.score) << what;
  EXPECT_EQ(got.t_end, want.t_end) << what;
  EXPECT_EQ(got.q_end, want.q_end) << what;
  EXPECT_EQ(got.cigar.to_string(), want.cigar.to_string()) << what;
}

TEST(DirsStream, StreamedMatchesResidentAcrossBlockSizesAndBackends) {
  const std::vector<u8> t = random_seq(71, 211);
  const std::vector<u8> q = mutate(72, t, 0.2);
  // Block heights: 1 diagonal (worst case), a few small odd sizes, the
  // auto default, and one taller than the whole matrix (never spills).
  const i32 ndiag = static_cast<i32>(t.size() + q.size()) - 1;
  const std::vector<i32> block_rows = {1, 2, 13, 0, ndiag + 5};

  KernelArena arena;
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    for (const Isa isa : available_isas()) {
      for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
        const std::string base = std::string(to_string(layout)) + "/" +
                                 to_string(isa) + "/" + to_string(mode);
        if (KernelFn fn = get_diff_kernel(layout, isa)) {
          DiffArgs a;
          a.target = t.data();
          a.tlen = static_cast<i32>(t.size());
          a.query = q.data();
          a.qlen = static_cast<i32>(q.size());
          a.mode = mode;
          a.with_cigar = true;
          a.arena = &arena;
          const AlignResult resident = fn(a);
          for (const i32 rows : block_rows) {
            MemDirsSpill spill;
            a.spill = &spill;
            a.spill_block_rows = rows;
            expect_same(fn(a), resident,
                        "diff/" + base + " block_rows=" + std::to_string(rows));
            // A 1-row block over a 211x190 pair cannot hold the matrix:
            // the spill sink must have been exercised.
            if (rows == 1) EXPECT_GT(spill.spilled_bytes(), 0u) << base;
            if (rows == ndiag + 5) EXPECT_EQ(spill.spilled_bytes(), 0u) << base;
          }
          a.spill = nullptr;
        }
      }
    }
  }
}

TEST(DirsStream, SkewedShapesAndFreshArenasMatchResident) {
  // Aspect-ratio extremes stress the row-length bookkeeping (rows are
  // bounded by min(|T|,|Q|)); arena == nullptr covers the fresh-workspace
  // path through the streaming mode.
  struct Shape {
    i32 tlen, qlen;
  };
  for (const Shape sh : {Shape{300, 17}, Shape{17, 300}, Shape{64, 64}}) {
    const std::vector<u8> t = random_seq(81 + sh.tlen, sh.tlen);
    const std::vector<u8> q = random_seq(82 + sh.qlen, sh.qlen);
    DiffArgs a;
    a.target = t.data();
    a.tlen = sh.tlen;
    a.query = q.data();
    a.qlen = sh.qlen;
    a.mode = AlignMode::kExtension;
    a.with_cigar = true;
    const AlignResult resident = align_pair(t, q, a.params, a.mode, true);
    MemDirsSpill spill;
    a.spill = &spill;
    a.spill_block_rows = 3;
    const KernelFn fn = get_diff_kernel(Layout::kManymap, best_isa());
    expect_same(fn(a), resident,
                "fresh-arena streamed " + std::to_string(sh.tlen) + "x" +
                    std::to_string(sh.qlen));
  }
}

TEST(DirsStream, FileSpillMatchesMemSpill) {
  const std::vector<u8> t = random_seq(91, 257);
  const std::vector<u8> q = mutate(92, t, 0.25);
  KernelArena arena;
  AlignResult mem_res, file_res;
  for (DirsSpill* spill :
       std::initializer_list<DirsSpill*>{new MemDirsSpill, new FileDirsSpill}) {
    std::unique_ptr<DirsSpill> owned(spill);
    DiffArgs a;
    a.target = t.data();
    a.tlen = static_cast<i32>(t.size());
    a.query = q.data();
    a.qlen = static_cast<i32>(q.size());
    a.with_cigar = true;
    a.arena = &arena;
    a.spill = spill;
    a.spill_block_rows = 5;
    const AlignResult r = get_diff_kernel(Layout::kManymap, best_isa())(a);
    EXPECT_GT(spill->spilled_bytes(), 0u);
    if (dynamic_cast<MemDirsSpill*>(spill) != nullptr)
      mem_res = r;
    else
      file_res = r;
  }
  expect_same(file_res, mem_res, "diff file-vs-mem");
}

TEST(DirsStream, ResidentBlockStaysBounded) {
  // A 1500x1500 path alignment needs ~2.4 MB of dirs resident; with a
  // 16-row block the arena must reserve only ~16*(1500+64) dirs bytes
  // plus the O(tlen) DP rows — far below the full footprint.
  const std::vector<u8> t = random_seq(101, 1500);
  const std::vector<u8> q = mutate(102, t, 0.15);
  const u64 full = KernelArena::dirs_footprint(1500, 1500);
  KernelArena arena;
  DiffArgs a;
  a.target = t.data();
  a.tlen = 1500;
  a.query = q.data();
  a.qlen = 1500;
  a.with_cigar = true;
  a.arena = &arena;
  MemDirsSpill spill;
  a.spill = &spill;
  a.spill_block_rows = 16;
  const AlignResult streamed = get_diff_kernel(Layout::kManymap, best_isa())(a);
  EXPECT_LT(arena.reserved_bytes(), full / 4);
  EXPECT_GT(spill.spilled_bytes(), full / 2);
  a.spill = nullptr;
  KernelArena resident_arena;
  a.arena = &resident_arena;
  expect_same(get_diff_kernel(Layout::kManymap, best_isa())(a), streamed,
              "bounded-block streamed result");
  EXPECT_GE(resident_arena.reserved_bytes(), full);
}

TEST(DirsStream, SpillStatsCountBlocks) {
  const std::vector<u8> t = random_seq(111, 128);
  const std::vector<u8> q = mutate(112, t, 0.2);
  DiffArgs a;
  a.target = t.data();
  a.tlen = 128;
  a.query = q.data();
  a.qlen = 128;
  a.with_cigar = true;
  KernelArena arena;
  a.arena = &arena;
  MemDirsSpill spill;
  a.spill = &spill;
  a.spill_block_rows = 1;
  detail::DirsSpillStats& stats = dirs_spill_stats();
  stats.reset();
  get_diff_kernel(Layout::kManymap, Isa::kScalar)(a);
  // One flush per full block (plus the sealed tail); with 1-row blocks
  // over 255 diagonals that is at least 200 handoffs.
  EXPECT_GT(stats.blocks, 200u);
  EXPECT_EQ(stats.bytes, spill.spilled_bytes());
}

TEST(ArenaTrim, FootprintDropsAndRewarmedCallsStayExactAndAllocationFree) {
  const std::vector<u8> big_t = random_seq(121, 900);
  const std::vector<u8> big_q = mutate(122, big_t, 0.15);
  const std::vector<u8> small_t = random_seq(123, 120);
  const std::vector<u8> small_q = mutate(124, small_t, 0.2);

  KernelArena arena;
  const KernelFn fn = get_diff_kernel(Layout::kManymap, best_isa());
  DiffArgs big;
  big.target = big_t.data();
  big.tlen = static_cast<i32>(big_t.size());
  big.query = big_q.data();
  big.qlen = static_cast<i32>(big_q.size());
  big.with_cigar = true;
  big.arena = &arena;
  const AlignResult big_want = fn(big);
  const u64 high_water = arena.reserved_bytes();
  EXPECT_GT(high_water, KernelArena::dirs_footprint(big.tlen, big.qlen));

  // Trim to a small-read budget: the giant pair no longer pins its pages.
  const u64 budget = 256 * 1024;
  const u64 freed = arena.trim(budget);
  EXPECT_GT(freed, 0u);
  EXPECT_LE(arena.reserved_bytes(), budget);
  EXPECT_EQ(arena.trim(budget), 0u);  // already under: no-op

  // Re-warmed small calls: first grows, then steady state is silent.
  DiffArgs small = big;
  small.target = small_t.data();
  small.tlen = static_cast<i32>(small_t.size());
  small.query = small_q.data();
  small.qlen = static_cast<i32>(small_q.size());
  const AlignResult small_want = [&] {
    DiffArgs fresh = small;
    fresh.arena = nullptr;
    return fn(fresh);
  }();
  expect_same(fn(small), small_want, "first call after trim");
  detail::DpAllocStats& stats = detail::dp_alloc_stats();
  stats.reset();
  for (int i = 0; i < 3; ++i) expect_same(fn(small), small_want, "steady after trim");
  EXPECT_EQ(stats.calls, 0u);

  // And the big pair still answers bit-exactly after re-growth.
  expect_same(fn(big), big_want, "big pair after trim");
}

#if MANYMAP_FAULT_INJECTION

using fault::FaultPlan;
using fault::FaultSpec;
using fault::ScopedPlan;

TEST(DirsStreamFault, SpillSiteFiresAndRetryRecovers) {
  const std::vector<u8> t = random_seq(131, 180);
  const std::vector<u8> q = mutate(132, t, 0.2);
  KernelArena arena;
  const KernelFn fn = get_diff_kernel(Layout::kManymap, Isa::kScalar);
  DiffArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.with_cigar = true;
  a.arena = &arena;
  const AlignResult want = fn(a);

  MemDirsSpill spill;
  a.spill = &spill;
  a.spill_block_rows = 4;
  {
    FaultPlan plan(7);
    FaultSpec spec;
    spec.site = "align.dirs.spill";
    spec.one_in = 3;
    plan.arm(spec);
    ScopedPlan guard(&plan);
    EXPECT_THROW(fn(a), fault::FaultInjected);
    EXPECT_GT(plan.fires(), 0u);
  }
  // Offsets are idempotent: the very same spill object and arena replay
  // the alignment from scratch and land on the resident answer.
  expect_same(fn(a), want, "retry after spill fault");
}

TEST(DirsStreamFault, SpillIoSiteCoversTempFileReadsAndWrites) {
  const std::vector<u8> t = random_seq(141, 160);
  const std::vector<u8> q = mutate(142, t, 0.2);
  const KernelFn fn = get_diff_kernel(Layout::kManymap, Isa::kScalar);
  DiffArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.with_cigar = true;
  KernelArena arena;
  a.arena = &arena;
  const AlignResult want = fn(a);

  FileDirsSpill spill;
  a.spill = &spill;
  a.spill_block_rows = 4;
  {
    FaultPlan plan(9);
    FaultSpec spec;
    spec.site = "align.dirs.spill_io";
    spec.one_in = 2;
    plan.arm(spec);
    ScopedPlan guard(&plan);
    EXPECT_THROW(fn(a), fault::FaultInjected);
  }
  expect_same(fn(a), want, "retry after spill_io fault");
}

#endif  // MANYMAP_FAULT_INJECTION

TEST(DirsSpillHelpers, RowsForBudgetAndBlockBytes) {
  // spill_rows_for_budget floors at one row and caps at the diagonal count.
  EXPECT_EQ(spill_rows_for_budget(1000, 1000, 0), 1);
  EXPECT_EQ(spill_rows_for_budget(10, 10, u64{1} << 30), 19);
  const i32 rows = spill_rows_for_budget(64000, 64000, u64{64} << 20);
  EXPECT_GE(rows, 1);
  // The resulting block honors the budget it was derived from.
  EXPECT_LE(KernelArena::stream_block_bytes(64000, 64000, rows), u64{64} << 20);
  // block_rows >= ndiag clamps to the full footprint (never spills).
  EXPECT_EQ(KernelArena::stream_block_bytes(100, 100, 1000),
            KernelArena::dirs_footprint(100, 100));
}

TEST(DirsSpillHelpers, RowsForBudgetAreBandAware) {
  // A banded 16 kbp pair writes O(band) dirs per diagonal row, so the same
  // budget buys proportionally more rows than the full-width sizing.
  const i32 tlen = 16'000, qlen = 16'000, band = 251;
  const u64 budget = u64{8} << 20;
  const i32 full_rows = spill_rows_for_budget(tlen, qlen, budget);
  const i32 band_rows = spill_rows_for_budget(tlen, qlen, budget, band);
  EXPECT_GT(band_rows, full_rows);
  // Proportional: row width shrinks from min(|T|,|Q|)+pad to 2*band+1+pad.
  const u64 full_row = static_cast<u64>(qlen) + detail::kLanePad;
  const u64 band_row = static_cast<u64>(2 * band + 1) + detail::kLanePad;
  EXPECT_EQ(static_cast<u64>(band_rows), budget / band_row);
  EXPECT_EQ(static_cast<u64>(full_rows), budget / full_row);
  // The taller banded block still honours the budget it was derived from.
  EXPECT_LE(KernelArena::stream_block_bytes(tlen, qlen, band_rows, band), budget);
  // An unbanded call is unchanged, and a band wider than the pair is inert.
  EXPECT_EQ(spill_rows_for_budget(tlen, qlen, budget, 0), full_rows);
  EXPECT_EQ(spill_rows_for_budget(100, 100, budget, 5'000),
            spill_rows_for_budget(100, 100, budget));
}

}  // namespace
}  // namespace manymap
