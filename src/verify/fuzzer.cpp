#include "verify/fuzzer.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <iterator>
#include <memory>

#include "align/arena.hpp"
#include "align/dirs_spill.hpp"
#include "align/reference_dp.hpp"
#include "gpu/batch_mapper.hpp"
#include "sequence/dna.hpp"
#include "simt/kernels.hpp"

namespace manymap {
namespace verify {

namespace {

// Scoring pools. Every entry satisfies the int8 difference-lane contract
// (ScoreParams::fits_int8); the saturation generator picks the boundary
// entries on purpose.
const ScoreParams kDiffParamsPool[] = {
    ScoreParams{},                 // defaults (2,4,4,2)
    ScoreParams::map_pb(),         // 2,5,4,2
    ScoreParams::map_ont(),        // 2,4,4,2
    ScoreParams{5, 11, 10, 3},     // steep gaps
    ScoreParams{1, 9, 16, 2},      // gap-averse
};
const ScoreParams kDiffBoundaryParams[] = {
    ScoreParams{100, 60, 20, 5},   // match + q + e == 125 (int8 bound)
    ScoreParams{90, 90, 30, 5},    // mismatch-heavy near the bound
};

const i32 kBoundaryLengths[] = {1,  2,  3,  7,  8,  9,  15,  16,  17,  31,  32,  33,
                                63, 64, 65, 95, 96, 97, 127, 128, 129, 255, 256, 257};

std::vector<u8> random_seq(XorShift& rng, i32 n) {
  std::vector<u8> s(static_cast<std::size_t>(n));
  for (auto& b : s) b = rng.chance(1, 20) ? kBaseN : rng.base();
  return s;
}

std::vector<u8> substitute(XorShift& rng, const std::vector<u8>& t, u64 pct) {
  std::vector<u8> q = t;
  for (auto& b : q)
    if (rng.chance(pct, 100)) b = rng.base();
  return q;
}

std::vector<u8> indel_mutate(XorShift& rng, const std::vector<u8>& t, u64 pct) {
  std::vector<u8> q;
  q.reserve(t.size() + 16);
  for (const u8 b : t) {
    const u64 u = rng.below(100);
    if (u < pct * 2 / 5) {
      q.push_back(rng.base());  // substitution
    } else if (u < pct * 7 / 10) {
      q.push_back(b);  // insertion after
      q.push_back(rng.base());
    } else if (u < pct) {
      // deletion
    } else {
      q.push_back(b);
    }
  }
  if (q.empty()) q.push_back(rng.base());
  return q;
}

std::vector<u8> homopolymer_seq(XorShift& rng, i32 approx_len) {
  std::vector<u8> s;
  s.reserve(static_cast<std::size_t>(approx_len) + 16);
  while (static_cast<i32>(s.size()) < approx_len) {
    const u8 b = rng.base();
    const i64 run = rng.range(1, 12);
    for (i64 k = 0; k < run; ++k) s.push_back(b);
  }
  s.resize(static_cast<std::size_t>(approx_len));
  return s;
}

void gen_substitution(XorShift& rng, FuzzCase& c) {
  const i32 len = static_cast<i32>(rng.range(1, 200));
  c.target = random_seq(rng, len);
  c.query = substitute(rng, c.target, 1 + rng.below(30));
}

void gen_indel(XorShift& rng, FuzzCase& c) {
  const i32 len = static_cast<i32>(rng.range(4, 200));
  c.target = random_seq(rng, len);
  c.query = indel_mutate(rng, c.target, 5 + rng.below(25));
}

void gen_homopolymer(XorShift& rng, FuzzCase& c) {
  c.target = homopolymer_seq(rng, static_cast<i32>(rng.range(8, 150)));
  // Same run structure, independently drawn run lengths: maximal gap
  // placement ambiguity stressing deterministic tie-breaking.
  c.query = indel_mutate(rng, c.target, 10 + rng.below(20));
}

void gen_length_sweep(XorShift& rng, FuzzCase& c) {
  // Lengths straddling the 16/32/64-lane chunk boundaries, paired either
  // equal, off-by-one, or against another boundary length.
  const i32 tlen = kBoundaryLengths[rng.below(std::size(kBoundaryLengths))];
  i32 qlen;
  switch (rng.below(3)) {
    case 0: qlen = tlen; break;
    case 1: qlen = std::max<i32>(1, tlen + static_cast<i32>(rng.range(-1, 1))); break;
    default: qlen = kBoundaryLengths[rng.below(std::size(kBoundaryLengths))]; break;
  }
  c.target = random_seq(rng, tlen);
  if (qlen == tlen && rng.chance(1, 2)) {
    c.query = substitute(rng, c.target, 1 + rng.below(15));
  } else {
    c.query = random_seq(rng, qlen);
  }
}

void gen_band_edge(XorShift& rng, FuzzCase& c) {
  // Extreme |T| / |Q| asymmetry: every diagonal is clipped by st/en, the
  // longest ones degenerate to a handful of cells.
  const i32 big = static_cast<i32>(rng.range(100, 400));
  const i32 small = static_cast<i32>(rng.range(1, 8));
  c.target = random_seq(rng, big);
  c.query = random_seq(rng, small);
  if (rng.chance(1, 2)) std::swap(c.target, c.query);
}

void gen_saturation(XorShift& rng, FuzzCase& c) {
  // High-identity pair with one long gap: after the gap closes, u/v lanes
  // swing to their extremes (match + q + e). With boundary parameters this
  // sits exactly on the int8 limit.
  const i32 len = static_cast<i32>(rng.range(80, 250));
  c.target = random_seq(rng, len);
  c.query = c.target;
  const i64 gap = rng.range(20, std::max<i64>(21, len / 2));
  const i64 at = rng.range(0, std::max<i64>(0, len - gap - 1));
  c.query.erase(c.query.begin() + at, c.query.begin() + at + gap);
  if (c.query.empty()) c.query.push_back(0);
  // Sprinkle a few substitutions so match runs restart.
  c.query = substitute(rng, c.query, 1 + rng.below(4));
  c.params = kDiffBoundaryParams[rng.below(std::size(kDiffBoundaryParams))];
}

}  // namespace

const char* to_string(Generator g) {
  switch (g) {
    case Generator::kSubstitution: return "substitution";
    case Generator::kIndel: return "indel";
    case Generator::kHomopolymer: return "homopolymer";
    case Generator::kLengthSweep: return "length_sweep";
    case Generator::kBandEdge: return "band_edge";
    case Generator::kSaturation: return "saturation";
  }
  return "?";
}

FuzzCase make_case(u64 seed) {
  FuzzCase c;
  c.seed = seed;
  XorShift rng(seed ^ 0xc0ffee5eedULL);
  c.generator = static_cast<Generator>(rng.below(kNumGenerators));
  c.params = kDiffParamsPool[rng.below(std::size(kDiffParamsPool))];
  switch (c.generator) {
    case Generator::kSubstitution: gen_substitution(rng, c); break;
    case Generator::kIndel: gen_indel(rng, c); break;
    case Generator::kHomopolymer: gen_homopolymer(rng, c); break;
    case Generator::kLengthSweep: gen_length_sweep(rng, c); break;
    case Generator::kBandEdge: gen_band_edge(rng, c); break;
    case Generator::kSaturation: gen_saturation(rng, c); break;
  }
  return c;
}

FuzzCase make_longread_case(u64 seed, i32 target_len) {
  FuzzCase c;
  c.seed = seed;
  c.generator = Generator::kIndel;
  XorShift rng(seed ^ 0x10a6de5dULL);
  c.params = kDiffParamsPool[rng.below(std::size(kDiffParamsPool))];
  c.target = random_seq(rng, target_len);
  // PacBio-like combined error rate: 8–17% substitutions + indels.
  c.query = indel_mutate(rng, c.target, 8 + rng.below(10));
  return c;
}

namespace {

std::string fmt_failure(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

struct ComboTable {
  std::vector<ComboStats> combos;

  ComboStats& at(const std::string& name) {
    for (auto& c : combos)
      if (c.name == name) return c;
    combos.push_back(ComboStats{name, 0, 0});
    return combos.back();
  }
};

/// Validate one matrix cell against a precomputed reference; on divergence
/// minimize and report. `arena` is shared across every cell of the seed,
/// so each invocation runs on a workspace left dirty by a *different*
/// kernel/layout/shape — the harshest reuse pattern the production path
/// can see (minimization replays arena-less, to keep repros standalone).
void run_cell(const CaseSpec& spec, const AlignResult& ref, const FuzzCase& fc,
              const SweepOptions& opt, SweepStats& stats, ComboTable& table,
              const std::function<void(const Divergence&)>& on_divergence,
              detail::KernelArena& arena) {
  if (!runnable(spec)) return;
  ComboStats& combo = table.at(spec.combo());
  ++combo.cases;
  ++stats.cases_run;
  const CheckResult check = check_result(spec, run_production(spec, &arena), ref);
  if (check.ok) return;
  ++combo.divergences;
  Divergence div;
  div.spec = opt.minimize ? minimize_case(spec) : spec;
  div.failure = run_oracle(div.spec).failure;
  if (div.failure.empty()) div.failure = check.failure;  // minimization lost it
  div.seed = fc.seed;
  div.generator = fc.generator;
  stats.divergences.push_back(div);
  if (on_divergence) on_divergence(stats.divergences.back());
}

}  // namespace

SweepStats run_sweep(const SweepOptions& opt,
                     const std::function<void(const Divergence&)>& on_divergence) {
  SweepStats stats;
  ComboTable table;
  const std::vector<Isa> isas = available_isas();
  const u32 simt_widths[] = {32, 64};

  for (u64 i = 0; i < opt.seeds; ++i) {
    const u64 seed = opt.first_seed + i;
    const FuzzCase fc = make_case(seed);
    // One arena per seed, reused across every (family x layout x ISA x
    // mode x path) cell: each kernel runs on whatever the previous one
    // left behind, continuously exercising the dirty-reuse invariant.
    detail::KernelArena arena;

    CaseSpec base;
    base.target = fc.target;
    base.query = fc.query;
    base.params = fc.params;

    // Band configurations shared by every banded cell of the seed: one
    // covering band (wide enough that the optimum usually stays inside —
    // the exactness half of the contract), one deliberately narrow band
    // (below the corner's diagonal offset more often than not — the
    // band-hit -> rerun-unbanded fallback half), and the covering band
    // with adaptive zdrop (heuristic results, bounded by the reference).
    struct BandCfg {
      i32 band, zdrop;
    };
    XorShift brng(seed ^ 0xba7df07dULL);
    const i32 slope = static_cast<i32>(fc.target.size() > fc.query.size()
                                           ? fc.target.size() - fc.query.size()
                                           : fc.query.size() - fc.target.size());
    const BandCfg band_cfgs[] = {
        {slope + static_cast<i32>(brng.range(4, 24)), 0},
        {static_cast<i32>(brng.range(1, std::max<i32>(2, slope + 2))), 0},
        {slope + static_cast<i32>(brng.range(4, 24)),
         static_cast<i32>(brng.range(10, 120))},
    };

    for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
      base.mode = mode;

      if (opt.family_diff || opt.family_simt || opt.family_banded ||
          opt.family_bandfull) {
        base.family = Family::kDiff;
        const AlignResult ref = run_reference(base);
        if (opt.family_diff) {
          for (const Layout layout : {Layout::kMinimap2, Layout::kManymap})
            for (const Isa isa : isas)
              for (const bool cigar : {false, true}) {
                CaseSpec spec = base;
                spec.family = Family::kDiff;
                spec.layout = layout;
                spec.isa = isa;
                spec.with_cigar = cigar;
                run_cell(spec, ref, fc, opt, stats, table, on_divergence, arena);
              }
        }
        if (opt.family_bandfull) {
          for (const BandCfg& bc : band_cfgs)
            for (const Layout layout : {Layout::kMinimap2, Layout::kManymap})
              for (const Isa isa : isas)
                for (const bool cigar : {false, true}) {
                  CaseSpec spec = base;
                  spec.family = Family::kDiff;
                  spec.layout = layout;
                  spec.isa = isa;
                  spec.with_cigar = cigar;
                  spec.band = bc.band;
                  spec.zdrop = bc.zdrop;
                  run_cell(spec, ref, fc, opt, stats, table, on_divergence, arena);
                }
        }
        const bool simt_sized =
            static_cast<i32>(fc.target.size()) <= opt.simt_max_len &&
            static_cast<i32>(fc.query.size()) <= opt.simt_max_len;
        if (opt.family_banded) {
          // Banded shares the diff reference: a full-coverage band (the
          // fallback ladder's last rung) must match it bit-for-bit. Layout
          // does not apply — one cell per path flavour. runnable() filters
          // extension mode (only global banded exists).
          for (const bool cigar : {false, true}) {
            CaseSpec spec = base;
            spec.family = Family::kBanded;
            spec.with_cigar = cigar;
            run_cell(spec, ref, fc, opt, stats, table, on_divergence, arena);
          }
        }
        if ((opt.family_simt || opt.family_bandfull) && simt_sized &&
            seed % opt.simt_every == 0) {
          for (const Layout layout : {Layout::kMinimap2, Layout::kManymap})
            for (const u32 threads : simt_widths)
              for (const bool cigar : {false, true}) {
                CaseSpec spec = base;
                spec.family = Family::kSimt;
                spec.layout = layout;
                spec.simt_threads = threads;
                spec.with_cigar = cigar;
                if (opt.family_simt)
                  run_cell(spec, ref, fc, opt, stats, table, on_divergence, arena);
                if (opt.family_bandfull) {
                  // One banded cell per (layout, width, path): covering
                  // band on the score flavour, narrow (fallback-forcing)
                  // band on the path flavour — the interpreter is too slow
                  // for the full band_cfgs sweep at every cell.
                  const BandCfg& bc = band_cfgs[cigar ? 1 : 0];
                  spec.band = bc.band;
                  spec.zdrop = bc.zdrop;
                  run_cell(spec, ref, fc, opt, stats, table, on_divergence, arena);
                }
              }
        }
      }
    }
  }
  stats.combos = std::move(table.combos);
  std::sort(stats.combos.begin(), stats.combos.end(),
            [](const ComboStats& a, const ComboStats& b) { return a.name < b.name; });
  return stats;
}

SweepStats run_longread_sweep(const LongReadOptions& opt,
                              const std::function<void(const Divergence&)>& on_divergence) {
  SweepStats stats;
  ComboTable table;
  const std::vector<Isa> isas = available_isas();
  // One arena for the whole sweep: every kernel — resident or streamed —
  // runs on workspace left dirty by a different seed, layout and shape.
  detail::KernelArena arena;

  for (u64 n = 0; n < opt.seeds; ++n) {
    const u64 seed = opt.first_seed + n;
    XorShift pick(seed * 0x9e3779b97f4a7c15ULL + 0x5eedf00dULL);
    const i32 len =
        static_cast<i32>(pick.range(opt.min_len, std::max(opt.min_len, opt.max_len)));
    const FuzzCase fc = make_longread_case(seed, len);

    CaseSpec spec;
    spec.layout = pick.chance(1, 2) ? Layout::kMinimap2 : Layout::kManymap;
    spec.isa = isas[pick.below(isas.size())];
    spec.mode = pick.chance(1, 2) ? AlignMode::kExtension : AlignMode::kGlobal;
    spec.with_cigar = true;
    spec.params = fc.params;
    spec.target = fc.target;
    spec.query = fc.query;
    if (!runnable(spec)) continue;  // pool params always fit int8; ISA gaps only

    ComboStats& combo = table.at("longread/" + spec.combo());
    auto report = [&](std::string why) {
      ++combo.divergences;
      Divergence div;
      div.spec = spec;  // un-minimized: long-read cases stay as generated
      div.failure = std::move(why);
      div.seed = seed;
      div.generator = fc.generator;
      stats.divergences.push_back(div);
      if (on_divergence) on_divergence(stats.divergences.back());
    };

    // Resident-dirs baseline, self-checked (shape + rescoring) so a broken
    // baseline cannot silently "agree" with an equally broken stream.
    const AlignResult resident = run_production(spec, &arena);
    ++stats.cases_run;
    ++combo.cases;
    std::string why;
    if (!validate_cigar_shape(resident.cigar, static_cast<u64>(resident.t_end + 1),
                              static_cast<u64>(resident.q_end + 1), &why)) {
      report("resident baseline has malformed CIGAR: " + why);
      continue;
    }
    const i64 rescore = resident.cigar.score(spec.target, spec.query, 0, 0, spec.params);
    if (rescore != resident.score) {
      report(fmt_failure("resident baseline CIGAR rescoring %lld != score %lld",
                         static_cast<long long>(rescore),
                         static_cast<long long>(resident.score)));
      continue;
    }

    // Streamed replays: degenerate one-row blocks, a small-budget block,
    // and the default block, through heap and (periodically) file sinks.
    const i32 tl = static_cast<i32>(spec.target.size());
    const i32 ql = static_cast<i32>(spec.query.size());
    struct StreamRun {
      const char* name;
      i32 rows;
      bool file;
    };
    const bool file_seed = opt.file_spill_every > 0 && seed % opt.file_spill_every == 0;
    const StreamRun runs[] = {
        {"rows=1", 1, false},
        {"budget=256KiB", spill_rows_for_budget(tl, ql, u64{256} << 10), file_seed},
        {"default-block", 0, false},
    };
    for (const StreamRun& r : runs) {
      const std::unique_ptr<DirsSpill> sink =
          r.file ? std::unique_ptr<DirsSpill>(std::make_unique<FileDirsSpill>())
                 : std::unique_ptr<DirsSpill>(std::make_unique<MemDirsSpill>());
      const AlignResult streamed = run_production_streamed(spec, &arena, sink.get(), r.rows);
      ++stats.cases_run;
      ++combo.cases;
      if (streamed.score != resident.score || streamed.t_end != resident.t_end ||
          streamed.q_end != resident.q_end) {
        report(fmt_failure("streamed (%s, %s sink) score/end %lld/(%d,%d) != resident "
                           "%lld/(%d,%d)",
                           r.name, r.file ? "file" : "mem",
                           static_cast<long long>(streamed.score), streamed.t_end,
                           streamed.q_end, static_cast<long long>(resident.score),
                           resident.t_end, resident.q_end));
        continue;
      }
      if (streamed.cigar.to_string() != resident.cigar.to_string()) {
        report(fmt_failure("streamed (%s, %s sink) CIGAR differs from resident", r.name,
                           r.file ? "file" : "mem"));
      }
    }

    // Row-band streamed reference: score/end cell must match the kernel.
    if (opt.with_reference) {
      DiffArgs a;
      a.target = spec.target.data();
      a.tlen = tl;
      a.query = spec.query.data();
      a.qlen = ql;
      a.params = spec.params;
      a.mode = spec.mode;
      a.with_cigar = false;
      const AlignResult ref = reference_align_streamed(a);
      ++stats.cases_run;
      ++combo.cases;
      if (ref.score != resident.score || ref.t_end != resident.t_end ||
          ref.q_end != resident.q_end)
        report(fmt_failure("row-band reference score/end %lld/(%d,%d) != kernel "
                           "%lld/(%d,%d)",
                           static_cast<long long>(ref.score), ref.t_end, ref.q_end,
                           static_cast<long long>(resident.score), resident.t_end,
                           resident.q_end));
    }
  }
  stats.combos = std::move(table.combos);
  std::sort(stats.combos.begin(), stats.combos.end(),
            [](const ComboStats& a, const ComboStats& b) { return a.name < b.name; });
  return stats;
}

namespace {

using FailsFn = std::function<bool(const CaseSpec&)>;

/// Try dropping `n` elements from the front or back of one sequence.
bool try_trim(CaseSpec& spec, const FailsFn& fails, bool target_seq, bool front,
              std::size_t n) {
  std::vector<u8>& s = target_seq ? spec.target : spec.query;
  if (s.size() < n || n == 0) return false;
  const std::vector<u8> saved = s;
  if (front) {
    s.erase(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(n));
  } else {
    s.resize(s.size() - n);
  }
  if (fails(spec)) return true;
  s = saved;
  return false;
}

/// Predicate-generic shrink shared by the oracle and device minimizers.
CaseSpec minimize_spec(const CaseSpec& spec, const FailsFn& fails) {
  if (!fails(spec)) return spec;
  CaseSpec cur = spec;
  // Phase 1: chunked trimming from both ends of both sequences.
  bool progress = true;
  while (progress) {
    progress = false;
    for (const bool target_seq : {true, false}) {
      std::size_t chunk =
          std::max<std::size_t>(1, (target_seq ? cur.target : cur.query).size() / 2);
      while (chunk >= 1) {
        while (try_trim(cur, fails, target_seq, /*front=*/false, chunk)) progress = true;
        while (try_trim(cur, fails, target_seq, /*front=*/true, chunk)) progress = true;
        if (chunk == 1) break;
        chunk /= 2;
      }
    }
  }
  // Phase 2: canonicalize bases to 'A' where the failure persists (bounded;
  // the SIMT interpreter makes oracle replays expensive on big cases).
  if (cur.target.size() + cur.query.size() <= 192) {
    for (const bool target_seq : {true, false}) {
      std::vector<u8>& s = target_seq ? cur.target : cur.query;
      for (auto& b : s) {
        if (b == 0) continue;
        const u8 saved = b;
        b = 0;
        if (!fails(cur)) b = saved;
      }
    }
  }
  return cur;
}

}  // namespace

CaseSpec minimize_case(const CaseSpec& spec) {
  return minimize_spec(spec, [](const CaseSpec& s) { return !run_oracle(s).ok; });
}

namespace {

/// DiffArgs view of a CaseSpec (score params; sequences stay owned by spec).
DiffArgs diff_args_of(const CaseSpec& spec, bool with_cigar) {
  DiffArgs a;
  a.target = spec.target.data();
  a.tlen = static_cast<i32>(spec.target.size());
  a.query = spec.query.data();
  a.qlen = static_cast<i32>(spec.query.size());
  a.params = spec.params;
  a.mode = spec.mode;
  a.with_cigar = with_cigar;
  return a;
}

/// Device-vs-CPU check for one diff-family segment through the production
/// offload path (staging, score-on-device, path-on-host completion).
CheckResult check_gpu_diff(const CaseSpec& spec, gpu::GpuBatchMapper& mapper, u32 stream) {
  const DiffArgs a = diff_args_of(spec, spec.with_cigar);
  const AlignResult cpu = mapper.config().host_kernel(a);
  const gpu::GpuBatchMapper::SegmentResult seg = mapper.align_segment(a, stream);
  if (seg.result.score != cpu.score || seg.result.t_end != cpu.t_end ||
      seg.result.q_end != cpu.q_end)
    return CheckResult::fail(fmt_failure(
        "gpu segment score/end %lld/(%d,%d) != cpu %lld/(%d,%d)%s",
        static_cast<long long>(seg.result.score), seg.result.t_end, seg.result.q_end,
        static_cast<long long>(cpu.score), cpu.t_end, cpu.q_end,
        seg.on_device ? "" : " [cpu-fallback path]"));
  if (spec.with_cigar && seg.result.cigar.to_string() != cpu.cigar.to_string())
    return CheckResult::fail("gpu path-split CIGAR differs from cpu path");
  return {};
}

}  // namespace

CheckResult check_gpu_case(const CaseSpec& spec) {
  if (!runnable(spec)) return {};
  gpu::GpuBatchConfig cfg;
  cfg.layout = spec.layout;
  cfg.threads_per_block = spec.simt_threads;
  cfg.num_streams = 1;
  cfg.staging_bytes =
      std::max<u64>(u64{1} << 20, 2 * (spec.target.size() + spec.query.size()));
  cfg.min_gpu_cells = 1;  // force the device even on minimized cases
  cfg.host_kernel = get_diff_kernel(spec.layout, spec.isa);
  if (cfg.host_kernel == nullptr) return {};
  gpu::GpuBatchMapper mapper(cfg);
  return check_gpu_diff(spec, mapper, 0);
}

SweepStats run_gpu_sweep(const GpuSweepOptions& opt,
                         const std::function<void(const Divergence&)>& on_divergence) {
  SweepStats stats;
  ComboTable table;
  const std::vector<Isa> isas = available_isas();
  const u32 stream_counts[] = {1, 2, 3, 4, 8};
  const u32 block_widths[] = {64, 128, 256};
  const auto gpu_fails = [](const CaseSpec& s) { return !check_gpu_case(s).ok; };

  for (u64 n = 0; n < opt.seeds; ++n) {
    const u64 seed = opt.first_seed + n;
    XorShift pick(seed * 0x9e3779b97f4a7c15ULL + 0x6b75da5eULL);

    // One offload subsystem per seed with a randomized shape. A quarter of
    // the seeds get a deliberately tiny staging area so segments trip the
    // staging-exhaustion fallback mid-batch — the fallback must stay
    // bit-identical, not just the happy path.
    gpu::GpuBatchConfig cfg;
    cfg.layout = pick.chance(1, 2) ? Layout::kMinimap2 : Layout::kManymap;
    cfg.threads_per_block = block_widths[pick.below(std::size(block_widths))];
    cfg.num_streams = stream_counts[pick.below(std::size(stream_counts))];
    cfg.staging_bytes =
        pick.chance(1, 4) ? (u64{256}) * cfg.num_streams : (u64{1} << 20);
    cfg.min_gpu_cells = 1;
    const Isa isa = isas[pick.below(isas.size())];
    cfg.host_kernel = get_diff_kernel(cfg.layout, isa);
    if (cfg.host_kernel == nullptr) continue;  // ISA gap on this machine
    gpu::GpuBatchMapper mapper(cfg);

    // Randomized batch composition: 2..6 segments of mixed lengths, modes
    // and path flavours, staged through random streams.
    const u64 nsegs = 2 + pick.below(5);
    for (u64 i = 0; i < nsegs; ++i) {
      const i32 len =
          static_cast<i32>(pick.range(opt.min_len, std::max(opt.min_len, opt.max_len)));
      const FuzzCase fc = make_longread_case(seed * 131 + i, len);
      CaseSpec spec;
      spec.layout = cfg.layout;
      spec.isa = isa;
      spec.simt_threads = cfg.threads_per_block;
      spec.mode = pick.chance(1, 2) ? AlignMode::kExtension : AlignMode::kGlobal;
      spec.params = fc.params;
      spec.target = fc.target;
      spec.query = fc.query;
      spec.with_cigar = pick.chance(1, 2);
      if (!runnable(spec)) continue;
      const u32 stream = static_cast<u32>(pick.below(cfg.num_streams));

      ComboStats& combo = table.at("gpu/" + spec.combo());
      ++combo.cases;
      ++stats.cases_run;
      const CheckResult check = check_gpu_diff(spec, mapper, stream);
      if (check.ok) continue;
      ++combo.divergences;
      Divergence div;
      div.spec = opt.minimize ? minimize_spec(spec, gpu_fails) : spec;
      div.failure = check_gpu_case(div.spec).failure;
      if (div.failure.empty()) div.failure = check.failure;  // minimization lost it
      div.seed = seed;
      div.generator = fc.generator;
      stats.divergences.push_back(div);
      if (on_divergence) on_divergence(stats.divergences.back());
    }
  }
  stats.combos = std::move(table.combos);
  std::sort(stats.combos.begin(), stats.combos.end(),
            [](const ComboStats& a, const ComboStats& b) { return a.name < b.name; });
  return stats;
}

}  // namespace verify
}  // namespace manymap
