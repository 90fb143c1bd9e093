// Tests for the differential verification subsystem (src/verify/): the
// oracle's invariants, the fuzzer's determinism, the repro format, the
// committed regression corpus, and the int8 saturation contract that the
// oracle was built to police.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "align/arena.hpp"
#include "align/dirs_spill.hpp"
#include "align/reference_dp.hpp"
#include "sequence/dna.hpp"
#include "verify/fuzzer.hpp"

namespace manymap {
namespace verify {
namespace {

std::vector<u8> seq(const std::string& s) { return encode_dna(s); }

/// Every (layout, isa) diff-kernel cell available on this machine.
std::vector<std::pair<Layout, Isa>> diff_cells() {
  std::vector<std::pair<Layout, Isa>> cells;
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap})
    for (const Isa isa : available_isas())
      if (get_diff_kernel(layout, isa) != nullptr) cells.push_back({layout, isa});
  return cells;
}

CaseSpec base_spec() {
  CaseSpec s;
  s.target = seq("ACGTACGTTTGACCA");
  s.query = seq("ACGTACGTGACCA");
  return s;
}

TEST(ValidateCigarShape, AcceptsWellFormedPath) {
  const Cigar c = Cigar::from_string("4M2D3M1I2M");
  std::string why;
  EXPECT_TRUE(validate_cigar_shape(c, 11, 10, &why)) << why;
}

TEST(ValidateCigarShape, RejectsSpanMismatch) {
  const Cigar c = Cigar::from_string("4M2D3M");
  std::string why;
  EXPECT_FALSE(validate_cigar_shape(c, 10, 7, &why));
  EXPECT_NE(why.find("target span"), std::string::npos) << why;
  EXPECT_FALSE(validate_cigar_shape(c, 9, 8, &why));
  EXPECT_NE(why.find("query span"), std::string::npos) << why;
}

TEST(ValidateCigarShape, EmptyCigarOnlyCoversEmptySpans) {
  const Cigar c;
  EXPECT_TRUE(validate_cigar_shape(c, 0, 0));
  EXPECT_FALSE(validate_cigar_shape(c, 1, 0));
}

TEST(Oracle, PassesEveryDiffBackend) {
  CaseSpec s = base_spec();
  s.family = Family::kDiff;
  for (const auto& [layout, isa] : diff_cells()) {
    s.layout = layout;
    s.isa = isa;
    for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
      s.mode = mode;
      for (const bool cigar : {false, true}) {
        s.with_cigar = cigar;
        ASSERT_TRUE(runnable(s));
        const CheckResult r = run_oracle(s);
        EXPECT_TRUE(r.ok) << s.combo() << ": " << r.failure;
      }
    }
  }
}

TEST(Oracle, PassesSimtBlockWidths) {
  CaseSpec s = base_spec();
  s.family = Family::kSimt;
  for (const u32 threads : {32u, 64u, 128u}) {
    s.simt_threads = threads;
    for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
      s.layout = layout;
      ASSERT_TRUE(runnable(s));
      const CheckResult r = run_oracle(s);
      EXPECT_TRUE(r.ok) << s.combo() << ": " << r.failure;
    }
  }
}

TEST(Oracle, DetectsScoreCorruption) {
  const CaseSpec s = base_spec();
  AlignResult got = run_production(s);
  const AlignResult ref = run_reference(s);
  got.score += 1;
  const CheckResult r = check_result(s, got, ref);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("score"), std::string::npos) << r.failure;
}

TEST(Oracle, DetectsEndCellCorruption) {
  const CaseSpec s = base_spec();
  AlignResult got = run_production(s);
  const AlignResult ref = run_reference(s);
  got.t_end -= 1;
  const CheckResult r = check_result(s, got, ref);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("end cell"), std::string::npos) << r.failure;
}

TEST(Oracle, DetectsPathCorruption) {
  CaseSpec s = base_spec();
  s.with_cigar = true;
  AlignResult got = run_production(s);
  const AlignResult ref = run_reference(s);
  // Same spans, different path: rescoring (or exact-path equality) must trip.
  Cigar wrong;
  wrong.push('D', static_cast<u32>(got.cigar.target_span()));
  wrong.push('I', static_cast<u32>(got.cigar.query_span()));
  got.cigar = wrong;
  const CheckResult r = check_result(s, got, ref);
  EXPECT_FALSE(r.ok);
}

TEST(Oracle, DetectsMalformedCigarSpans) {
  CaseSpec s = base_spec();
  s.with_cigar = true;
  AlignResult got = run_production(s);
  const AlignResult ref = run_reference(s);
  Cigar truncated;
  truncated.push('M', 1);
  got.cigar = truncated;
  const CheckResult r = check_result(s, got, ref);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("malformed"), std::string::npos) << r.failure;
}

TEST(Oracle, DetectsCigarInScoreOnlyResult) {
  CaseSpec s = base_spec();
  s.with_cigar = false;
  AlignResult got = run_production(s);
  const AlignResult ref = run_reference(s);
  got.cigar.push('M', 1);
  const CheckResult r = check_result(s, got, ref);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("score-only"), std::string::npos) << r.failure;
}

// ---- int8 saturation contract (the bug family this subsystem exists for).

TEST(Int8Contract, PreFixParameterSetsAreNowRejected) {
  // Admitted by the old bound max(match, q+e) <= 120; u/v lanes reach
  // match+q+e = 150 and wrapped in the scalar kernels while the SIMD
  // kernels saturated — three different answers for a 1bp match (see
  // tests/data/regressions/int8_wrap_*.repro).
  const ScoreParams wrap{100, 60, 40, 10};
  EXPECT_FALSE(wrap.fits_int8());
  // Production defaults all stay admitted.
  EXPECT_TRUE(ScoreParams{}.fits_int8());
  EXPECT_TRUE(ScoreParams::map_pb().fits_int8());
  EXPECT_TRUE(ScoreParams::map_ont().fits_int8());
}

using Int8ContractDeathTest = ::testing::Test;

TEST(Int8ContractDeathTest, ScalarDiffKernelRefusesWrappingParams) {
  DiffArgs a;
  const std::vector<u8> t = seq("ACGT"), q = seq("ACGT");
  a.target = t.data();
  a.tlen = 4;
  a.query = q.data();
  a.qlen = 4;
  a.params = ScoreParams{100, 60, 40, 10};
  EXPECT_DEATH(get_diff_kernel(Layout::kManymap, Isa::kScalar)(a), "int8");
}

TEST(Int8Contract, SaturationBoundaryParamsAgreeOnEveryBackend) {
  // match + q + e == 125 exactly: the largest admitted swing. All backends
  // must still agree bit-exactly with the reference (saturating and exact
  // arithmetic coincide when saturation never binds).
  CaseSpec s;
  s.family = Family::kDiff;
  s.params = ScoreParams{100, 60, 20, 5};
  ASSERT_TRUE(s.params.fits_int8());
  // A long deletion closing into a high-identity run maximizes the lanes.
  s.target = seq("ACGTACGTACGTACGTACGTACGTGGGGGGGGGGGGGGGGGGGGACGTACGTACGTACGT");
  s.query = seq("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT");
  for (const auto& [layout, isa] : diff_cells()) {
    s.layout = layout;
    s.isa = isa;
    for (const bool cigar : {false, true}) {
      s.with_cigar = cigar;
      const CheckResult r = run_oracle(s);
      EXPECT_TRUE(r.ok) << s.combo() << ": " << r.failure;
    }
  }
  s.family = Family::kSimt;
  s.with_cigar = true;
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    s.layout = layout;
    const CheckResult r = run_oracle(s);
    EXPECT_TRUE(r.ok) << s.combo() << ": " << r.failure;
  }
}

// ---- fuzzer.

TEST(Fuzzer, CasesAreDeterministic) {
  for (const u64 seed : {1ull, 17ull, 4096ull, 0ull}) {
    const FuzzCase a = make_case(seed);
    const FuzzCase b = make_case(seed);
    EXPECT_EQ(a.generator, b.generator);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.params.match, b.params.match);
  }
}

TEST(Fuzzer, GeneratorsCoverAllKinds) {
  bool hit[kNumGenerators] = {};
  for (u64 seed = 1; seed <= 64; ++seed) hit[static_cast<int>(make_case(seed).generator)] = true;
  for (int g = 0; g < kNumGenerators; ++g)
    EXPECT_TRUE(hit[g]) << "generator " << g << " never produced in 64 seeds";
}

TEST(Fuzzer, SmallSweepIsCleanAndDeterministic) {
  SweepOptions opt;
  opt.seeds = 12;
  opt.minimize = false;
  const SweepStats a = run_sweep(opt);
  EXPECT_TRUE(a.divergences.empty());
  EXPECT_GT(a.cases_run, 0u);
  const SweepStats b = run_sweep(opt);
  EXPECT_EQ(a.cases_run, b.cases_run);
  ASSERT_EQ(a.combos.size(), b.combos.size());
  for (std::size_t i = 0; i < a.combos.size(); ++i) {
    EXPECT_EQ(a.combos[i].name, b.combos[i].name);
    EXPECT_EQ(a.combos[i].cases, b.combos[i].cases);
  }
}

TEST(Fuzzer, MinimizeReturnsInputWhenCaseDoesNotFail) {
  const CaseSpec s = base_spec();
  const CaseSpec m = minimize_case(s);
  EXPECT_EQ(m.target, s.target);
  EXPECT_EQ(m.query, s.query);
}

// Satellite (d): every CIGAR produced with with_cigar=true passes the
// structural validator and rescoring for 1k fuzzed pairs per backend.
TEST(CigarProperty, ThousandFuzzedPairsPerBackend) {
  constexpr u64 kPairs = 1000;
  for (const auto& [layout, isa] : diff_cells()) {
    XorShift rng(0xC16A5u ^ (static_cast<u64>(layout) << 8) ^ static_cast<u64>(isa));
    CaseSpec s;
    s.family = Family::kDiff;
    s.layout = layout;
    s.isa = isa;
    s.with_cigar = true;
    u64 checked = 0;
    for (u64 k = 0; k < kPairs; ++k) {
      const FuzzCase c = make_case(1 + rng.below(100000));
      s.mode = rng.chance(1, 2) ? AlignMode::kGlobal : AlignMode::kExtension;
      s.params = c.params;
      s.target = c.target;
      s.query = c.query;
      if (s.target.size() > 160) s.target.resize(160);
      if (s.query.size() > 160) s.query.resize(160);
      if (!runnable(s)) continue;
      const AlignResult got = run_production(s);
      std::string why;
      ASSERT_TRUE(validate_cigar_shape(got.cigar, static_cast<u64>(got.t_end + 1),
                                       static_cast<u64>(got.q_end + 1), &why))
          << s.combo() << ": " << why;
      ASSERT_EQ(got.cigar.score(s.target, s.query, 0, 0, s.params), got.score) << s.combo();
      ++checked;
    }
    EXPECT_GT(checked, kPairs / 2) << s.combo();
  }
}

// ---- repro format.

TEST(Repro, RoundTripsEveryField) {
  CaseSpec s;
  s.family = Family::kDiff;
  s.layout = Layout::kMinimap2;
  s.isa = Isa::kAvx2;
  s.mode = AlignMode::kExtension;
  s.with_cigar = true;
  s.simt_threads = 128;
  s.band = 16;
  s.zdrop = 100;
  s.params = ScoreParams{5, 11, 10, 3};
  s.target = seq("ACGTN");
  s.query = {};
  const std::string text = format_repro(s, "round trip\nsecond line");
  CaseSpec out;
  std::string err;
  ASSERT_TRUE(parse_repro(text, &out, &err)) << err;
  EXPECT_EQ(out.family, s.family);
  EXPECT_EQ(out.layout, s.layout);
  EXPECT_EQ(out.isa, s.isa);
  EXPECT_EQ(out.mode, s.mode);
  EXPECT_EQ(out.with_cigar, s.with_cigar);
  EXPECT_EQ(out.simt_threads, s.simt_threads);
  EXPECT_EQ(out.band, s.band);
  EXPECT_EQ(out.zdrop, s.zdrop);
  EXPECT_EQ(out.params.gap_open, 10);
  EXPECT_EQ(out.target, s.target);
  EXPECT_EQ(out.query, s.query);
}

TEST(Repro, RejectsBadInput) {
  CaseSpec out;
  std::string err;
  EXPECT_FALSE(parse_repro("not a repro\n", &out, &err));
  EXPECT_FALSE(parse_repro("manymap-verify-repro v1\nfamily nosuch\n", &out, &err));
  EXPECT_FALSE(parse_repro("manymap-verify-repro v1\nfamily twopiece\n", &out, &err));
  EXPECT_FALSE(parse_repro("manymap-verify-repro v1\ntarget ACGZ\n", &out, &err));
}

// ---- row-band streamed reference DP.

TEST(StreamedReference, MatchesFullMatrixAcrossFuzzCases) {
  for (u64 seed = 1; seed <= 40; ++seed) {
    const FuzzCase fc = make_case(seed);
    for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
      DiffArgs a;
      a.target = fc.target.data();
      a.tlen = static_cast<i32>(fc.target.size());
      a.query = fc.query.data();
      a.qlen = static_cast<i32>(fc.query.size());
      a.params = fc.params;
      a.mode = mode;
      a.with_cigar = false;
      const AlignResult full = reference_align(a);
      const AlignResult streamed = reference_align_streamed(a);
      ASSERT_EQ(streamed.score, full.score) << "seed " << seed;
      ASSERT_EQ(streamed.t_end, full.t_end) << "seed " << seed;
      ASSERT_EQ(streamed.q_end, full.q_end) << "seed " << seed;
      EXPECT_TRUE(streamed.cigar.empty());
    }
  }
}

TEST(StreamedReference, HandlesDegenerateAndAsymmetricShapes) {
  const std::vector<u8> t = seq("ACGTACGTACGTACGTACGT");
  const std::vector<u8> q = seq("AG");
  for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
    for (const auto& [tv, qv] : {std::pair{t, q}, {q, t}, {t, std::vector<u8>{}},
                                 {std::vector<u8>{}, q}, {t, std::vector<u8>{0}}}) {
      DiffArgs a;
      a.target = tv.data();
      a.tlen = static_cast<i32>(tv.size());
      a.query = qv.data();
      a.qlen = static_cast<i32>(qv.size());
      a.mode = mode;
      a.with_cigar = false;
      const AlignResult full = reference_align(a);
      const AlignResult streamed = reference_align_streamed(a);
      EXPECT_EQ(streamed.score, full.score);
      EXPECT_EQ(streamed.t_end, full.t_end);
      EXPECT_EQ(streamed.q_end, full.q_end);
    }
  }
}

// ---- long-read streaming sweep (a miniature of --family longread).

TEST(LongReadSweep, SmallSweepHasNoDivergences) {
  LongReadOptions opt;
  opt.seeds = 6;
  opt.min_len = 256;
  opt.max_len = 768;
  opt.file_spill_every = 3;  // at least two file-sink seeds
  const SweepStats stats = run_longread_sweep(opt);
  EXPECT_GT(stats.cases_run, 0u);
  for (const Divergence& d : stats.divergences)
    ADD_FAILURE() << "seed " << d.seed << " " << d.spec.combo() << ": " << d.failure;
}

TEST(LongReadSweep, DeterministicAcrossRuns) {
  LongReadOptions opt;
  opt.seeds = 2;
  opt.min_len = 200;
  opt.max_len = 300;
  const SweepStats a = run_longread_sweep(opt);
  const SweepStats b = run_longread_sweep(opt);
  ASSERT_EQ(a.combos.size(), b.combos.size());
  for (std::size_t i = 0; i < a.combos.size(); ++i) {
    EXPECT_EQ(a.combos[i].name, b.combos[i].name);
    EXPECT_EQ(a.combos[i].cases, b.combos[i].cases);
  }
}

// ---- live-mapping audit over the streamed reference branch.

TEST(CheckLiveMapping, AuditsLargeSpansThroughStreamedReference) {
  const FuzzCase fc = make_longread_case(7, 300);
  DiffArgs a;
  a.target = fc.target.data();
  a.tlen = static_cast<i32>(fc.target.size());
  a.query = fc.query.data();
  a.qlen = static_cast<i32>(fc.query.size());
  a.params = ScoreParams::map_pb();
  a.mode = AlignMode::kGlobal;
  a.with_cigar = true;
  const AlignResult ref = reference_align(a);

  LiveMapping m;
  m.contig = &fc.target;
  m.tstart = 0;
  m.tend = fc.target.size();
  m.query = &fc.query;
  m.qstart = 0;
  m.qend = static_cast<u32>(fc.query.size());
  m.score = ref.score;
  m.cigar = &ref.cigar;

  // max_ref_cells=1 forces the span past the full-matrix replay; the
  // streamed reference must take over and accept the optimal path.
  EXPECT_TRUE(check_live_mapping(m, ScoreParams::map_pb(), /*max_ref_cells=*/1).ok);

  // An inflated score must be caught by the same streamed branch.
  LiveMapping inflated = m;
  inflated.score = ref.score + 1;
  // (rescoring catches it first unless the CIGAR matches the claim, so
  // check the streamed-reference failure via a clean score bump on a
  // score-consistent path: shift both.)
  const CheckResult r = check_live_mapping(inflated, ScoreParams::map_pb(), 1);
  EXPECT_FALSE(r.ok);

  // Spans beyond max_stream_cells skip the reference audit but still pass
  // shape + rescoring.
  EXPECT_TRUE(check_live_mapping(m, ScoreParams::map_pb(), /*max_ref_cells=*/1,
                                 /*max_stream_cells=*/1)
                  .ok);
}

// ---- committed regression corpus.
//
// Every divergence the fuzzer ever found and we fixed lives as a .repro
// under tests/data/regressions/. A case is either (a) runnable, in which
// case the oracle must pass, or (b) rejected by the int8 contract — the
// committed fix for the saturation/wrap family — in which case its
// parameters must actually violate fits_int8 (not just be unavailable).
TEST(RegressionCorpus, EveryCommittedReproHolds) {
  const std::filesystem::path dir = MANYMAP_REGRESSION_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  u64 total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    // v2 (end-to-end) repros replay through test_e2e and manymap_verify
    // --repro; this corpus covers the single-kernel v1 files.
    {
      std::ifstream head(entry.path());
      std::string first;
      std::getline(head, first);
      if (first != "manymap-verify-repro v1") continue;
    }
    ++total;
    CaseSpec spec;
    std::string err;
    ASSERT_TRUE(load_repro_file(entry.path().string(), &spec, &err))
        << entry.path() << ": " << err;
    if (runnable(spec)) {
      const CheckResult r = run_oracle(spec);
      EXPECT_TRUE(r.ok) << entry.path() << " " << spec.combo() << ": " << r.failure;
      // longread_* repros additionally pin the dirs streaming path: the
      // degenerate one-row block schedule must be bit-identical to the
      // resident kernel on the committed case.
      if (entry.path().filename().string().rfind("longread_", 0) == 0 &&
          spec.family == Family::kDiff) {
        detail::KernelArena arena;
        const AlignResult resident = run_production(spec, &arena);
        MemDirsSpill sink;
        const AlignResult streamed = run_production_streamed(spec, &arena, &sink, 1);
        EXPECT_EQ(streamed.score, resident.score) << entry.path();
        EXPECT_EQ(streamed.t_end, resident.t_end) << entry.path();
        EXPECT_EQ(streamed.q_end, resident.q_end) << entry.path();
        EXPECT_EQ(streamed.cigar.to_string(), resident.cigar.to_string()) << entry.path();
        if (spec.with_cigar) EXPECT_GT(sink.spilled_bytes(), 0u) << entry.path();
      }
    } else if (spec.params.fits_int8()) {
      // Params fine but the kernel is missing: only acceptable for ISAs this
      // machine genuinely lacks.
      EXPECT_NE(spec.isa, Isa::kScalar) << entry.path() << ": scalar must always exist";
    } else {
      SUCCEED();  // rejected by the int8 contract — the committed fix
    }
  }
  EXPECT_GE(total, 5u) << "regression corpus went missing";
}

}  // namespace
}  // namespace verify
}  // namespace manymap
