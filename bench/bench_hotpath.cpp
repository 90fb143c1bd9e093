// Hot-path allocation & direction-emission bench: proves the steady-state
// alignment path performs ZERO heap allocations (score AND path mode) and
// quantifies the ns/cell win from arena reuse + direct vector direction
// stores. Covers every (layout x ISA) diff backend in both modes,
// fresh-workspace vs arena-reused, and emits BENCH_hotpath.json holding
// the committed pre-change baseline, the current numbers and the speedup.
// Path mode is additionally measured with diagonal-block dirs streaming
// ("path-stream" rows: MemDirsSpill sink, 256 KiB resident block) so the
// bounded-memory mode's ns/cell overhead stays visible next to the
// resident numbers. A banded section ("path-16k-band*" rows) times the
// banded kernel variants on one 16 kbp x 16 kbp pair — band 64 / 251 /
// 1024 vs the full kernel, ns normalized by the FULL matrix cell count —
// and the run fails unless band 251 beats the full kernel decisively.
// An end-to-end row ("path-16k-unbanded") maps 16 kbp simulated reads
// through the whole Mapper on a warmed arena and holds it to the same
// zero-steady-state-allocation contract.
//
// Usage:
//   bench_hotpath [--out BENCH_hotpath.json]   full run (~1 min)
//   bench_hotpath --smoke                      short run; exit 1 if any
//                                              steady-state call allocates
//                                              or banded stops beating full
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "align/arena.hpp"
#include "align/diff_common.hpp"
#include "align/dirs_spill.hpp"
#include "align/kernel_api.hpp"
#include "base/random.hpp"
#include "base/timer.hpp"
#include "core/mapper.hpp"
#include "core/options.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

// Pre-change ns/cell on the reference machine (commit 7c5dcf3: per-call
// vector workspaces, zero-filled dirs, store-to-buf + memcpy direction
// emission), same 2000x2000 noisy-pair workload. Keyed "family layout isa
// mode". These anchor the speedup column so regressions against the
// pre-arena code stay visible without rebuilding it.
struct BaselineRow {
  const char* key;
  double ns_per_cell;
};
const BaselineRow kBaseline[] = {
    {"diff minimap2 scalar score", 8.4065},   {"diff minimap2 scalar path", 8.2006},
    {"diff minimap2 sse2 score", 0.3557},     {"diff minimap2 sse2 path", 0.8594},
    {"diff minimap2 avx2 score", 0.2349},     {"diff minimap2 avx2 path", 0.5323},
    {"diff minimap2 avx512 score", 0.1925},   {"diff minimap2 avx512 path", 0.4650},
    {"diff manymap scalar score", 8.4086},    {"diff manymap scalar path", 8.6427},
    {"diff manymap sse2 score", 0.2724},      {"diff manymap sse2 path", 0.6649},
    {"diff manymap avx2 score", 0.1212},      {"diff manymap avx2 path", 0.3985},
    {"diff manymap avx512 score", 0.1276},    {"diff manymap avx512 path", 0.3347},
};

double baseline_ns(const std::string& key) {
  for (const BaselineRow& r : kBaseline)
    if (key == r.key) return r.ns_per_cell;
  return 0.0;
}

struct Workload {
  std::vector<u8> target;
  std::vector<u8> query;
};

Workload make_workload(i32 len) {
  Workload w;
  Rng rng(123);
  w.target.resize(static_cast<std::size_t>(len));
  for (auto& b : w.target) b = rng.base();
  w.query = w.target;
  for (auto& b : w.query)
    if (rng.bernoulli(0.15)) b = rng.base();
  return w;
}

struct Row {
  std::string family, layout, isa, mode;
  double fresh_ns = 0.0;        ///< arena == nullptr (per-call workspace)
  double reused_ns = 0.0;       ///< steady state on a warmed arena
  double baseline_ns = 0.0;     ///< committed pre-change number
  u64 fresh_alloc_calls = 0;    ///< check_dp_alloc firings per fresh call
  u64 fresh_alloc_bytes = 0;
  u64 steady_alloc_calls = 0;   ///< firings across ALL steady-state calls
  u64 steady_growths = 0;       ///< arena growth events ditto
  u64 spilled_bytes = 0;        ///< sink high-water (path-stream rows only)
};

/// Run `invoke` repeatedly for >= min_seconds (after one warm-up) and
/// return ns/cell.
template <class Fn>
double time_ns_per_cell(Fn&& invoke, double min_seconds) {
  invoke();  // warm-up (also warms the thread arena when one is in play)
  WallTimer t;
  int reps = 0;
  u64 cells = 0;
  do {
    cells += invoke();
    ++reps;
  } while (t.seconds() < min_seconds && reps < 4000);
  return t.seconds() * 1e9 / static_cast<double>(cells);
}

Row bench_backend(Layout layout, Isa isa, bool cigar, bool streamed, KernelFn fn,
                  DiffArgs args, double min_seconds) {
  Row row;
  row.family = "diff";
  row.layout = to_string(layout);
  row.isa = to_string(isa);
  row.mode = streamed ? "path-stream" : (cigar ? "path" : "score");
  row.baseline_ns =  // no pre-change baseline exists for the streaming mode
      streamed ? 0.0
               : baseline_ns(row.family + " " + row.layout + " " + row.isa + " " +
                             row.mode);

  // Streamed rows bound the resident dirs block at 256 KiB, well under the
  // full footprint for both workload sizes, so finished blocks really do
  // leave through the sink. Writes are idempotent rewrites, so one sink
  // serves every repetition without growing past the footprint.
  MemDirsSpill spill;
  if (streamed) {
    args.spill = &spill;
    args.spill_block_rows =
        spill_rows_for_budget(args.tlen, args.qlen, u64{256} << 10);
  }

  detail::DpAllocStats& stats = detail::dp_alloc_stats();

  // Fresh: no arena, so every call sizes a workspace from scratch.
  args.arena = nullptr;
  row.fresh_ns = time_ns_per_cell([&] { return fn(args).cells; }, min_seconds);
  stats.reset();
  fn(args);
  row.fresh_alloc_calls = stats.calls;
  row.fresh_alloc_bytes = stats.bytes;

  // Reused: a warmed arena must never reach the allocator again.
  detail::KernelArena arena;
  args.arena = &arena;
  fn(args);  // growth happens here
  const u64 growths_before = arena.growth_events();
  stats.reset();
  row.reused_ns = time_ns_per_cell([&] { return fn(args).cells; }, min_seconds);
  row.steady_alloc_calls = stats.calls;
  row.steady_growths = arena.growth_events() - growths_before;
  row.spilled_bytes = spill.spilled_bytes();
  return row;
}

void collect(const Workload& w, double min_seconds, std::vector<Row>& rows) {
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    for (const Isa isa : {Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kAvx512}) {
      for (const bool cigar : {false, true}) {
        if (KernelFn fn = get_diff_kernel(layout, isa)) {
          DiffArgs a;
          a.target = w.target.data();
          a.tlen = static_cast<i32>(w.target.size());
          a.query = w.query.data();
          a.qlen = static_cast<i32>(w.query.size());
          a.mode = AlignMode::kGlobal;
          a.with_cigar = cigar;
          rows.push_back(bench_backend(layout, isa, cigar, false, fn, a, min_seconds));
          if (cigar) rows.push_back(bench_backend(layout, isa, cigar, true, fn, a, min_seconds));
        }
      }
    }
  }
}

/// Banded kernel rows: one 16 kbp x 16 kbp related pair (the paper's long
/// read scale) in path mode on the widest ISA, band 0 (full) vs 64 / 251 /
/// 1024 half-widths, dirs streamed through a 256 KiB resident block so the
/// spilled-bytes column shows the O(band) block shrink next to the O(|Q|)
/// full rows. ns/cell here is normalized by the FULL |T|x|Q| cell count
/// for every row — "effective time per full-matrix cell" — so the banded
/// rows' win over the full row is the point of the column, not the
/// per-touched-cell cost (which barely moves). Returns the manymap-layout
/// full/band=251 wall-time ratio for the --smoke banded-beats-full check.
double collect_banded(double min_seconds, std::vector<Row>& rows) {
  const i32 len = 16000;
  const Workload w = make_workload(len);
  const u64 full_cells = static_cast<u64>(len) * static_cast<u64>(len);
  const Isa isa = best_isa();
  detail::DpAllocStats& stats = detail::dp_alloc_stats();
  double full_ns = 0.0, band251_ns = 0.0;
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    const KernelFn fn = get_diff_kernel(layout, isa);
    if (fn == nullptr) continue;
    for (const i32 band : {0, 64, 251, 1024}) {
      DiffArgs a;
      a.target = w.target.data();
      a.tlen = len;
      a.query = w.query.data();
      a.qlen = len;
      a.mode = AlignMode::kGlobal;
      a.with_cigar = true;
      a.band = band;
      MemDirsSpill spill;
      a.spill = &spill;
      a.spill_block_rows = spill_rows_for_budget(len, len, u64{256} << 10);

      Row row;
      row.family = "diff";
      row.layout = to_string(layout);
      row.isa = to_string(isa);
      row.mode = band == 0 ? "path-16k-full" : "path-16k-band" + std::to_string(band);
      detail::KernelArena arena;
      a.arena = &arena;
      fn(a);  // warm-up: arena growth + sink high-water
      const u64 growths_before = arena.growth_events();
      stats.reset();
      row.reused_ns = time_ns_per_cell(
          [&] {
            const AlignResult r = fn(a);
            // The related pair keeps the optimum on the diagonal; a band
            // hit would silently time the wrong (confined) computation.
            if (r.band_hit) std::fprintf(stderr, "FAIL: unexpected band_hit\n");
            return full_cells;
          },
          min_seconds);
      row.steady_alloc_calls = stats.calls;
      row.steady_growths = arena.growth_events() - growths_before;
      row.spilled_bytes = spill.spilled_bytes();
      rows.push_back(row);
      if (layout == Layout::kManymap && band == 0) full_ns = row.reused_ns;
      if (layout == Layout::kManymap && band == 251) band251_ns = row.reused_ns;
    }
  }
  return band251_ns > 0.0 ? full_ns / band251_ns : 0.0;
}

/// End-to-end mapper row: map 16 kbp simulated reads through the full
/// Mapper (seed -> chain -> extend) on a warmed per-row KernelArena (MapCall
/// arena), so the zero-steady-state-allocation contract is checked for
/// the whole hot path, not just the kernels. The column reads ns per DP
/// cell the mapper counted.
void collect_mapper_e2e(double min_seconds, std::vector<Row>& rows) {
  // The reference alternates 300 bp unique blocks with 1.3 kbp copies of
  // one repeat family, and a tight max_occ cap masks every repeat
  // minimizer. Chains hop each desert (well under the chain max_dist), so
  // the mapper closes ~1.3 kbp anchor-free middle gaps with gap-fill DP,
  // all under the huge-gap cap so every fill runs the exact kernels. Reads
  // are phase-aligned so both ends land mid-unique-block and the end
  // extensions stay trivial; the unit length divides 16000 so every read
  // end phase equals its start phase.
  constexpr i32 kUnique = 300, kRepeat = 1300, kUnit = kUnique + kRepeat;
  constexpr i32 kUnits = 16;
  Rng rng(2024);
  std::vector<u8> family(kRepeat);
  for (auto& b : family) b = rng.base();
  std::vector<u8> genome;
  genome.reserve(static_cast<std::size_t>(kUnits) * kUnit + 2'000);
  for (i32 u = 0; u < kUnits; ++u) {
    for (i32 i = 0; i < kUnique; ++i) genome.push_back(rng.base());
    // Copies are byte-identical: every repeat k-mer then occurs kUnits
    // times and the occ cap masks them all. Per-copy divergence would
    // leak copy-specific k-mers past the mask as wrong-diagonal anchors,
    // which exhaust the chain DP's bounded predecessor look-back and
    // split chains mid-read.
    genome.insert(genome.end(), family.begin(), family.end());
  }
  for (i32 i = 0; i < 2'000; ++i) genome.push_back(rng.base());
  Sequence contig;
  contig.name = "desert-ref";
  contig.codes = genome;
  Reference ref;
  ref.add(std::move(contig));

  // 16 kbp reads at ~1% error. 16000 mod kUnit == 0, so start offset 150
  // puts both read ends dead-center in a unique block, robust to the
  // +-3 sd indel length jitter of the error process.
  const auto make_read = [&](u64 pos, const char* name) {
    Sequence r;
    r.name = name;
    for (u64 i = pos; i < genome.size() && r.codes.size() < 16'000; ++i) {
      if (rng.bernoulli(0.002)) continue;         // deletion
      u8 b = genome[static_cast<std::size_t>(i)];
      if (rng.bernoulli(0.006)) b = rng.base();   // substitution
      r.codes.push_back(b);
      if (r.codes.size() < 16'000 && rng.bernoulli(0.002))
        r.codes.push_back(rng.base());            // insertion
    }
    return r;
  };
  std::vector<Sequence> reads;
  reads.push_back(make_read(150, "desert-read-a"));
  reads.push_back(make_read(2 * kUnit + 150, "desert-read-b"));
  reads.push_back(make_read(4 * kUnit + 150, "desert-read-c"));
  reads.push_back(make_read(6 * kUnit + 150, "desert-read-d"));

  MapOptions opt = MapOptions::map_pb();
  opt.max_occ_cap = 4;  // mask the repeat minimizers (kUnits copies)
  // Sparser sketch: the unique blocks still yield ~35 anchors each, and
  // halving the minimizer count keeps fixed seeding cost from drowning
  // the DP time this row measures.
  opt.sketch.w = 19;
  const Mapper mapper(ref, opt);

  detail::KernelArena arena;
  MapTimings t;
  MapCall call;
  call.arena = &arena;
  call.timings = &t;
  const auto pass = [&] {
    for (const auto& sr : reads) (void)mapper.map(sr, call);
  };
  pass();  // count cells and warm the arena across every segment shape
  call.timings = nullptr;
  const u64 cells = t.dp_cells > 0 ? t.dp_cells : 1;
  std::printf("mapper e2e workload: cells=%llu align=%.1fms seed=%.1fms\n",
              static_cast<unsigned long long>(t.dp_cells), t.align_seconds * 1e3,
              t.seed_chain_seconds * 1e3);

  detail::DpAllocStats& stats = detail::dp_alloc_stats();
  const u64 growths_before = arena.growth_events();
  stats.reset();
  u64 reps = 0;
  WallTimer total;
  do {
    pass();
    ++reps;
  } while (total.seconds() < min_seconds && reps < 4000);
  const double seconds = total.seconds();
  Row row;
  row.family = "mapper";
  row.layout = "e2e";
  row.isa = to_string(best_isa());
  row.mode = "path-16k-unbanded";
  row.reused_ns =
      seconds * 1e9 / (static_cast<double>(cells) * static_cast<double>(reps));
  row.steady_alloc_calls = stats.calls;
  row.steady_growths = arena.growth_events() - growths_before;
  rows.push_back(row);
}

void write_json(const std::vector<Row>& rows, const std::string& path, i32 len) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"hotpath\",\n  \"workload\": "
               "{\"tlen\": %d, \"qlen\": %d, \"mutation_rate\": 0.15, \"seed\": 123},\n"
               "  \"banded_workload\": {\"tlen\": 16000, \"qlen\": 16000, "
               "\"note\": \"path-16k-* rows; ns/cell normalized by the full "
               "matrix cell count\"},\n"
               "  \"baseline_commit\": \"7c5dcf3\",\n  \"rows\": [\n", len, len);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup = r.reused_ns > 0.0 && r.baseline_ns > 0.0
                               ? r.baseline_ns / r.reused_ns
                               : 0.0;
    std::fprintf(
        f,
        "    {\"family\": \"%s\", \"layout\": \"%s\", \"isa\": \"%s\", "
        "\"mode\": \"%s\", \"baseline_ns_per_cell\": %.4f, "
        "\"fresh_ns_per_cell\": %.4f, \"reused_ns_per_cell\": %.4f, "
        "\"speedup_vs_baseline\": %.3f, \"fresh_alloc_calls\": %llu, "
        "\"fresh_alloc_bytes\": %llu, \"steady_alloc_calls\": %llu, "
        "\"steady_growth_events\": %llu, \"spilled_bytes\": %llu}%s\n",
        r.family.c_str(), r.layout.c_str(), r.isa.c_str(), r.mode.c_str(),
        r.baseline_ns, r.fresh_ns, r.reused_ns, speedup,
        static_cast<unsigned long long>(r.fresh_alloc_calls),
        static_cast<unsigned long long>(r.fresh_alloc_bytes),
        static_cast<unsigned long long>(r.steady_alloc_calls),
        static_cast<unsigned long long>(r.steady_growths),
        static_cast<unsigned long long>(r.spilled_bytes),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace manymap

int main(int argc, char** argv) {
  using namespace manymap;
  bool smoke = false;
  std::string out = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out file.json]\n", argv[0]);
      return 2;
    }
  }

  // Smoke keeps the alloc-count contract but trims timing to near-nothing;
  // a smaller pair also keeps the scalar backends fast under sanitizers.
  const i32 len = smoke ? 500 : 2000;
  const double min_seconds = smoke ? 0.0 : 0.25;
  const Workload w = make_workload(len);

  std::vector<Row> rows;
  collect(w, min_seconds, rows);
  const double banded_speedup = collect_banded(min_seconds, rows);
  collect_mapper_e2e(min_seconds, rows);

  std::printf("%-9s %-9s %-7s %-11s %10s %10s %10s %8s %7s %7s\n", "family",
              "layout", "isa", "mode", "base ns", "fresh ns", "reuse ns", "speedup",
              "alloc/c", "steady");
  int violations = 0;
  for (const Row& r : rows) {
    const double speedup =
        r.reused_ns > 0.0 && r.baseline_ns > 0.0 ? r.baseline_ns / r.reused_ns : 0.0;
    std::printf("%-9s %-9s %-7s %-11s %10.4f %10.4f %10.4f %7.2fx %7llu %7llu\n",
                r.family.c_str(), r.layout.c_str(), r.isa.c_str(), r.mode.c_str(),
                r.baseline_ns, r.fresh_ns, r.reused_ns, speedup,
                static_cast<unsigned long long>(r.fresh_alloc_calls),
                static_cast<unsigned long long>(r.steady_alloc_calls));
    // A streamed row that never spilled measured the resident path by
    // accident (block budget too generous for the workload). The e2e
    // mapper rows run resident, so only the kernel rows are held to this.
    if ((r.mode == "path-stream" || r.mode == "path-16k-full" ||
         r.mode.rfind("path-16k-band", 0) == 0) &&
        r.spilled_bytes == 0) {
      std::fprintf(stderr, "FAIL: %s/%s/%s streamed row spilled nothing\n",
                   r.family.c_str(), r.layout.c_str(), r.isa.c_str());
      ++violations;
    }
    // The zero-allocation contract: once an arena has seen a shape, further
    // calls (score or path) must never reach the allocator.
    if (r.steady_alloc_calls != 0 || r.steady_growths != 0) {
      std::fprintf(stderr, "FAIL: %s/%s/%s/%s allocated in steady state "
                   "(%llu check_dp_alloc calls, %llu growths)\n",
                   r.family.c_str(), r.layout.c_str(), r.isa.c_str(), r.mode.c_str(),
                   static_cast<unsigned long long>(r.steady_alloc_calls),
                   static_cast<unsigned long long>(r.steady_growths));
      ++violations;
    }
  }

  // Banded-beats-full: skipping out-of-band cells is the band's whole
  // value; on the 16 kbp pair band 251 must be decisively faster than the
  // full kernel (the committed JSON shows >= 2x; 1.5x here absorbs
  // sanitizer and machine noise without letting a regression through).
  std::printf("banded speedup on 16 kbp (full / band=251, manymap): %.2fx\n",
              banded_speedup);
  if (banded_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: banded 16 kbp run is not beating the full kernel "
                 "(%.2fx < 1.5x)\n", banded_speedup);
    ++violations;
  }

  if (!smoke) write_json(rows, out, len);
  if (violations != 0) {
    std::fprintf(stderr, "%d backend(s) violated the zero-allocation contract\n",
                 violations);
    return 1;
  }
  std::printf("steady-state allocations: 0 across %zu backend combos\n", rows.size());
  return 0;
}
