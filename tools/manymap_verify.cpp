// manymap_verify — differential verification of the alignment kernel
// matrix against the full-matrix reference DP.
//
//   manymap_verify [options]            fuzz sweep (default 256 seeds)
//   manymap_verify --repro FILE [...]   replay committed repro cases
//
// Sweep options:
//   --seeds N        fuzz seeds to sweep (default 256)
//   --first-seed S   first seed (default 1; seeds are S..S+N-1)
//   --family F       diff|simt|banded|bandfull|longread|gpu|e2e|corruptidx|
//                    all (default all); `bandfull` sweeps the banded kernel
//                    variants through the auto-full-fallback contract
//                    against the unbanded reference; `longread`
//                    sweeps the dirs streaming path end-to-end; `gpu`
//                    sweeps device-vs-CPU agreement through the offload
//                    subsystem (randomized batches and streams); `e2e`
//                    sweeps whole serving scenarios — worker counts,
//                    shuffled orders, the degradation ladder and armed
//                    fault plans — through the end-to-end determinism
//                    contract (verify/e2e.hpp); `corruptidx` fuzzes index
//                    persistence against corrupted files
//   --no-minimize    report divergences without shrinking them
//   --out DIR        write a minimized .repro file per divergence to DIR
//   --quiet          suppress the per-combo table
//
// Exit status: 0 when every validated cell matched the reference, 1 on any
// divergence (or non-reproducing repro), 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "align/arena.hpp"
#include "align/dirs_spill.hpp"
#include "core/options.hpp"
#include "verify/e2e_fuzzer.hpp"
#include "verify/fuzzer.hpp"
#include "verify/index_fuzzer.hpp"

namespace manymap {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: manymap_verify [--seeds N] [--first-seed S]\n"
               "                      [--family diff|simt|banded|bandfull|longread|gpu|e2e|corruptidx|all]\n"
               "                      [--no-minimize] [--out DIR] [--quiet]\n"
               "       manymap_verify --smoke-longread N [--smoke-budget-mb M]\n"
               "       manymap_verify [--family gpu] --repro FILE [FILE...]\n"
               "\n"
               "--family bandfull sweeps the banded diff/SIMT kernel\n"
               "variants — covering, deliberately-narrow and zdrop bands — through\n"
               "the production band-hit -> rerun-unbanded fallback, so every final\n"
               "answer must still match the unbanded reference.\n"
               "--family longread sweeps the diagonal-block dirs streaming path on\n"
               "long-read-sized pairs (resident vs streamed bit-identity plus the\n"
               "row-band streamed reference). --family gpu sweeps device-vs-CPU\n"
               "agreement through the offload subsystem over randomized batch\n"
               "compositions and stream counts; with --repro it replays each case\n"
               "through check_gpu_case instead of the reference oracle.\n"
               "--family e2e sweeps whole serving scenarios through the end-to-end\n"
               "determinism contract: identical responses across worker counts and\n"
               "shuffled submission orders, cross-degradation agreement (resident /\n"
               "streamed / banded / score-only / gpu), and chaos composition under\n"
               "live-oracle auditing. --repro replays v2 (kind e2e) files through\n"
               "the same contract; v1 kernel repros replay unchanged.\n"
               "--family corruptidx fuzzes the MMMI index persistence layer:\n"
               "each seed serializes a seed-derived index, applies one corruption\n"
               "(truncation, bit flips, hostile counts, stale version, damaged\n"
               "checksums — or none) and requires every load path (stream, mmap,\n"
               "zero-copy view) to either round-trip bit-identically or fail with\n"
               "a structured, actionable error — never crash or over-allocate.\n"
               "Periodic replays run with checksums disabled and with the\n"
               "index.io.*/index.corrupt fault sites armed.\n"
               "--smoke-longread aligns one N x ~N bp\n"
               "pair in path mode with dirs spilled to a temp file under an M MiB\n"
               "resident block budget (default 48) — runnable under ulimit -v.\n");
}

/// CI memory-budget smoke: one long-read pair through the streaming path,
/// file-backed spill, resident dirs bounded by `budget_mb`. Two different
/// block heights must agree bit-for-bit and pass shape + rescoring.
int run_smoke_longread(i64 n, i64 budget_mb) {
  using namespace verify;
  const verify::FuzzCase fc = make_longread_case(/*seed=*/1, static_cast<i32>(n));
  CaseSpec spec;
  spec.family = Family::kDiff;
  spec.layout = Layout::kManymap;
  spec.isa = best_isa();
  spec.mode = AlignMode::kGlobal;
  spec.with_cigar = true;
  spec.params = ScoreParams::map_pb();
  spec.target = fc.target;
  spec.query = fc.query;

  const i32 tl = static_cast<i32>(spec.target.size());
  const i32 ql = static_cast<i32>(spec.query.size());
  const u64 footprint = detail::KernelArena::dirs_footprint(tl, ql);
  const u64 budget = static_cast<u64>(budget_mb) << 20;
  const i32 rows = spill_rows_for_budget(tl, ql, budget);
  const u64 block = detail::KernelArena::stream_block_bytes(tl, ql, rows);
  std::fprintf(stderr,
               "smoke-longread: %d x %d bp, dirs footprint %.1f MiB, resident block "
               "%.1f MiB (%d rows), file spill\n",
               tl, ql, static_cast<double>(footprint) / (1 << 20),
               static_cast<double>(block) / (1 << 20), rows);

  detail::KernelArena arena;
  FileDirsSpill sink;
  const AlignResult first = run_production_streamed(spec, &arena, &sink, rows);
  std::string why;
  if (!verify::validate_cigar_shape(first.cigar, static_cast<u64>(first.t_end + 1),
                                    static_cast<u64>(first.q_end + 1), &why)) {
    std::fprintf(stderr, "smoke-longread: malformed CIGAR: %s\n", why.c_str());
    return 1;
  }
  const i64 rescore = first.cigar.score(spec.target, spec.query, 0, 0, spec.params);
  if (rescore != first.score) {
    std::fprintf(stderr, "smoke-longread: CIGAR rescoring %lld != score %lld\n",
                 static_cast<long long>(rescore), static_cast<long long>(first.score));
    return 1;
  }
  // Replay at half the block height: block boundaries move, bytes must not.
  FileDirsSpill sink2;
  const AlignResult second =
      run_production_streamed(spec, &arena, &sink2, std::max<i32>(1, rows / 2));
  if (second.score != first.score || second.t_end != first.t_end ||
      second.q_end != first.q_end || second.cigar.to_string() != first.cigar.to_string()) {
    std::fprintf(stderr, "smoke-longread: block heights %d and %d disagree\n", rows,
                 std::max<i32>(1, rows / 2));
    return 1;
  }
  std::printf("smoke-longread OK: score=%lld cigar_ops=%zu spilled=%.1f MiB "
              "resident_block=%.1f MiB\n",
              static_cast<long long>(first.score), first.cigar.ops().size(),
              static_cast<double>(sink.spilled_bytes()) / (1 << 20),
              static_cast<double>(block) / (1 << 20));
  return 0;
}

int run_repros(const std::vector<std::string>& files, bool gpu) {
  int bad = 0;
  for (const std::string& path : files) {
    verify::CaseSpec spec;
    verify::E2eCase e2e;
    verify::ReproKind kind;
    std::string err;
    if (!verify::load_repro_any(path, &kind, &spec, &e2e, &err)) {
      std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), err.c_str());
      ++bad;
      continue;
    }
    if (kind == verify::ReproKind::kE2e) {
      const verify::CheckResult r = verify::check_e2e_case(e2e);
      std::printf("%-60s %s\n", path.c_str(), r.ok ? "OK" : "DIVERGES");
      if (!r.ok) {
        std::fprintf(stderr, "  e2e seed=%llu: %s\n",
                     static_cast<unsigned long long>(e2e.seed), r.failure.c_str());
        ++bad;
      }
      continue;
    }
    if (gpu) {
      // Device-agreement replay: the case may pass the reference oracle
      // (the CPU kernel is right) while the device path diverges.
      const verify::CheckResult r = verify::check_gpu_case(spec);
      std::printf("%-60s %s\n", path.c_str(), r.ok ? "OK" : "DIVERGES");
      if (!r.ok) {
        std::fprintf(stderr, "  gpu/%s: %s\n", spec.combo().c_str(), r.failure.c_str());
        ++bad;
      }
      continue;
    }
    if (!verify::runnable(spec)) {
      if (spec.family == verify::Family::kBanded) {
        std::printf("%-60s SKIP (banded is global-only)\n", path.c_str());
        continue;
      }
      // Either this machine lacks the ISA (skip) or the parameters violate
      // the int8 contract (the committed fix for saturation repros: the
      // kernels now refuse instead of silently corrupting lanes).
      std::printf("%-60s %s\n", path.c_str(),
                  spec.params.fits_int8() ? "SKIP (ISA unavailable)"
                                          : "OK (params rejected by int8 contract)");
      continue;
    }
    const verify::CheckResult r = verify::run_oracle(spec);
    std::printf("%-60s %s\n", path.c_str(), r.ok ? "OK" : "DIVERGES");
    if (!r.ok) {
      std::fprintf(stderr, "  %s: %s\n", spec.combo().c_str(), r.failure.c_str());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace manymap

int main(int argc, char** argv) {
  using namespace manymap;
  verify::SweepOptions opt;
  bool quiet = false;
  bool family_longread = false;
  bool family_gpu = false;
  bool family_e2e = false;
  bool family_corruptidx = false;
  i64 smoke_len = 0;
  i64 smoke_budget_mb = 48;
  std::string out_dir;
  std::vector<std::string> repro_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "manymap_verify: %s needs a value\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--seeds") {
      const char* v = value();
      if (v == nullptr) return 2;
      opt.seeds = std::strtoull(v, nullptr, 10);
    } else if (arg == "--first-seed") {
      const char* v = value();
      if (v == nullptr) return 2;
      opt.first_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--family") {
      const char* v = value();
      if (v == nullptr) return 2;
      opt.family_diff = opt.family_simt = opt.family_banded = opt.family_bandfull = false;
      if (std::strcmp(v, "diff") == 0) opt.family_diff = true;
      else if (std::strcmp(v, "simt") == 0) opt.family_simt = true;
      else if (std::strcmp(v, "banded") == 0) opt.family_banded = true;
      else if (std::strcmp(v, "bandfull") == 0) opt.family_bandfull = true;
      else if (std::strcmp(v, "longread") == 0) family_longread = true;
      else if (std::strcmp(v, "gpu") == 0) family_gpu = true;
      else if (std::strcmp(v, "e2e") == 0) family_e2e = true;
      else if (std::strcmp(v, "corruptidx") == 0) family_corruptidx = true;
      else if (std::strcmp(v, "all") == 0)
        opt.family_diff = opt.family_simt = opt.family_banded = opt.family_bandfull = true;
      else {
        std::fprintf(stderr, "manymap_verify: unknown family '%s'\n", v);
        return 2;
      }
    } else if (arg == "--smoke-longread") {
      const char* v = value();
      if (v == nullptr) return 2;
      const auto parsed = parse_positive_int(v);
      if (!parsed) {
        std::fprintf(stderr, "manymap_verify: --smoke-longread needs a positive length\n");
        return 2;
      }
      smoke_len = *parsed;
    } else if (arg == "--smoke-budget-mb") {
      const char* v = value();
      if (v == nullptr) return 2;
      const auto parsed = parse_positive_int(v);
      if (!parsed) {
        std::fprintf(stderr, "manymap_verify: --smoke-budget-mb needs a positive size\n");
        return 2;
      }
      smoke_budget_mb = *parsed;
    } else if (arg == "--no-minimize") {
      opt.minimize = false;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return 2;
      out_dir = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--repro") {
      while (i + 1 < argc) repro_files.push_back(argv[++i]);
      if (repro_files.empty()) {
        std::fprintf(stderr, "manymap_verify: --repro needs at least one file\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "manymap_verify: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (!repro_files.empty()) return run_repros(repro_files, family_gpu);
  if (smoke_len > 0) return run_smoke_longread(smoke_len, smoke_budget_mb);

  if (family_e2e) {
    u64 e2e_emitted = 0;
    const auto on_e2e_divergence = [&](const verify::E2eDivergence& d) {
      std::fprintf(stderr, "E2E DIVERGENCE seed=%llu\n  %s\n",
                   static_cast<unsigned long long>(d.seed), d.failure.c_str());
      if (!out_dir.empty()) {
        const std::string note =
            "seed " + std::to_string(d.seed) + "\n" + d.failure;
        const std::string path =
            out_dir + "/e2e_divergence_" + std::to_string(e2e_emitted) + ".repro";
        std::ofstream out(path);
        out << verify::format_e2e_repro(d.c, note);
        std::fprintf(stderr, "  repro written to %s\n", path.c_str());
      }
      ++e2e_emitted;
    };
    verify::E2eSweepOptions e2e;
    e2e.seeds = opt.seeds;
    e2e.first_seed = opt.first_seed;
    e2e.minimize = opt.minimize;
    const verify::E2eStats stats = verify::run_e2e_sweep(e2e, on_e2e_divergence);
    std::printf(
        "verified %llu end-to-end cases (%llu service lifecycles, %llu chaos runs), "
        "%zu divergences\n",
        static_cast<unsigned long long>(stats.cases_run),
        static_cast<unsigned long long>(stats.service_runs),
        static_cast<unsigned long long>(stats.chaos_runs), stats.divergences.size());
    return stats.divergences.empty() ? 0 : 1;
  }

  u64 emitted = 0;
  const auto on_divergence = [&](const verify::Divergence& d) {
    std::fprintf(stderr, "DIVERGENCE seed=%llu generator=%s %s\n  %s\n",
                 static_cast<unsigned long long>(d.seed), to_string(d.generator),
                 d.spec.combo().c_str(), d.failure.c_str());
    if (!out_dir.empty()) {
      char note[256];
      std::snprintf(note, sizeof(note), "seed %llu generator %s\n%s",
                    static_cast<unsigned long long>(d.seed), to_string(d.generator),
                    d.failure.c_str());
      const std::string path = out_dir + "/divergence_" + std::to_string(emitted) + ".repro";
      std::ofstream out(path);
      out << verify::format_repro(d.spec, note);
      std::fprintf(stderr, "  repro written to %s\n", path.c_str());
    }
    ++emitted;
  };

  verify::SweepStats stats;
  if (family_corruptidx) {
    verify::CorruptIdxOptions ci;
    ci.seeds = opt.seeds;
    ci.first_seed = opt.first_seed;
    stats = verify::run_corruptidx_sweep(ci, on_divergence);
    if (!quiet) {
      std::printf("%-40s %10s %12s\n", "corruption", "seeds", "divergences");
      for (const auto& c : stats.combos)
        std::printf("%-40s %10llu %12llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.cases),
                    static_cast<unsigned long long>(c.divergences));
    }
    std::printf("corruptidx: %llu loads across %zu corruption kinds, %zu divergences\n",
                static_cast<unsigned long long>(stats.cases_run), stats.combos.size(),
                stats.divergences.size());
    return stats.divergences.empty() ? 0 : 1;
  }
  if (family_longread) {
    verify::LongReadOptions lr;
    lr.seeds = opt.seeds;
    lr.first_seed = opt.first_seed;
    stats = verify::run_longread_sweep(lr, on_divergence);
  } else if (family_gpu) {
    verify::GpuSweepOptions gp;
    gp.seeds = opt.seeds;
    gp.first_seed = opt.first_seed;
    gp.minimize = opt.minimize;
    stats = verify::run_gpu_sweep(gp, on_divergence);
  } else {
    stats = verify::run_sweep(opt, on_divergence);
  }

  if (!quiet) {
    std::printf("%-40s %10s %12s\n", "combo", "cases", "divergences");
    for (const auto& c : stats.combos)
      std::printf("%-40s %10llu %12llu\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.cases),
                  static_cast<unsigned long long>(c.divergences));
  }
  std::printf("verified %llu kernel invocations over %zu matrix cells, %zu divergences\n",
              static_cast<unsigned long long>(stats.cases_run), stats.combos.size(),
              stats.divergences.size());
  return stats.divergences.empty() ? 0 : 1;
}
