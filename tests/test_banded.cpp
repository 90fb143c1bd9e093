#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdlib>

#include "align/arena.hpp"
#include "align/banded.hpp"
#include "align/reference_dp.hpp"
#include "base/random.hpp"
#include "core/mapper.hpp"
#include "core/options.hpp"
#include "core/paf.hpp"
#include "core/sam.hpp"
#include "sequence/dna.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

std::vector<u8> random_seq(Rng& rng, i32 n) {
  std::vector<u8> s(static_cast<std::size_t>(n));
  for (auto& b : s) b = rng.base();
  return s;
}

BandedArgs make_banded(const std::vector<u8>& t, const std::vector<u8>& q, i32 band,
                       bool cigar) {
  BandedArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.band = band;
  a.with_cigar = cigar;
  return a;
}

DiffArgs make_full(const std::vector<u8>& t, const std::vector<u8>& q, bool cigar,
                   AlignMode mode = AlignMode::kGlobal) {
  DiffArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.mode = mode;
  a.with_cigar = cigar;
  return a;
}

TEST(Banded, FullBandMatchesReferenceExactly) {
  Rng rng(11);
  for (int it = 0; it < 40; ++it) {
    const i32 tlen = 1 + static_cast<i32>(rng.uniform(60));
    const i32 qlen = 1 + static_cast<i32>(rng.uniform(60));
    const auto t = random_seq(rng, tlen);
    const auto q = random_seq(rng, qlen);
    const auto ref = reference_align(make_full(t, q, true));
    const auto got = banded_global_align(make_banded(t, q, std::max(tlen, qlen), true));
    ASSERT_EQ(got.score, ref.score) << tlen << "x" << qlen;
    ASSERT_EQ(got.cigar.to_string(), ref.cigar.to_string());
  }
}

TEST(Banded, NarrowBandOptimalWhenPathFits) {
  // Related sequences whose alignment stays near the diagonal: a modest
  // band must already give the optimal score.
  Rng rng(12);
  for (int it = 0; it < 20; ++it) {
    const auto t = random_seq(rng, 300);
    auto q = t;
    for (auto& b : q)
      if (rng.bernoulli(0.1)) b = rng.base();  // substitutions only
    const auto ref = reference_align(make_full(t, q, false));
    const auto got = banded_global_align(make_banded(t, q, 16, false));
    EXPECT_EQ(got.score, ref.score);
  }
}

TEST(Banded, ScoreMonotonicInBand) {
  Rng rng(13);
  const auto t = random_seq(rng, 200);
  const auto q = random_seq(rng, 180);
  i64 prev = INT64_MIN;
  for (const i32 band : {2, 8, 32, 128, 200}) {
    const auto r = banded_global_align(make_banded(t, q, band, false));
    EXPECT_GE(r.score, prev) << band;
    prev = r.score;
  }
}

TEST(Banded, AsymmetricLengthsFollowTheCenterLine) {
  // |T| = 3|Q|: the optimal path drifts far off the i==j diagonal; the
  // center-line band must still reach the corner with a small half-width.
  Rng rng(14);
  std::vector<u8> q = random_seq(rng, 100);
  std::vector<u8> t;
  for (const u8 b : q) {  // target = query with every base triplicated
    t.push_back(b);
    t.push_back(b);
    t.push_back(b);
  }
  const auto r = banded_global_align(make_banded(t, q, 24, true));
  EXPECT_EQ(r.cigar.target_span(), t.size());
  EXPECT_EQ(r.cigar.query_span(), q.size());
  // The full DP agrees given the same freedom.
  const auto ref = reference_align(make_full(t, q, false));
  EXPECT_LE(r.score, ref.score);
}

TEST(Banded, CigarValidAndRescores) {
  Rng rng(15);
  for (int it = 0; it < 15; ++it) {
    const auto t = random_seq(rng, 150 + static_cast<i32>(rng.uniform(100)));
    auto q = t;
    q.resize(t.size() - 20);  // net deletion
    const auto r = banded_global_align(make_banded(t, q, 64, true));
    EXPECT_EQ(r.cigar.target_span(), t.size());
    EXPECT_EQ(r.cigar.query_span(), q.size());
    EXPECT_EQ(r.cigar.score(t, q, 0, 0, ScoreParams{}), r.score);
  }
}

TEST(Banded, DegenerateInputs) {
  const std::vector<u8> empty;
  const auto t = encode_dna("ACGT");
  const ScoreParams p;
  auto r = banded_global_align(make_banded(t, empty, 8, true));
  EXPECT_EQ(r.score, -(p.gap_open + 4 * p.gap_ext));
  EXPECT_EQ(r.cigar.to_string(), "4D");
  r = banded_global_align(make_banded(empty, empty, 8, false));
  EXPECT_EQ(r.score, 0);
}

TEST(Banded, CellsReflectBandNotFullMatrix) {
  Rng rng(16);
  const auto t = random_seq(rng, 1000);
  const auto q = random_seq(rng, 1000);
  const auto r = banded_global_align(make_banded(t, q, 50, false));
  EXPECT_LE(r.cells, 1000u * 101u);
  EXPECT_LT(r.cells, 1000u * 1000u / 5);
}

// --- corner coverage (regression guards for the auto-widening) ---

TEST(Banded, SteepSlopeNarrowBandStillReachesTheCorner) {
  // Mirrors tests/data/regressions/banded_corner_steep_slope.repro: with
  // |T| = 2, |Q| = 8 and band 1 the pre-fix row windows were disjoint and
  // the kernel aborted. The widened band must reach the corner and, since
  // widening makes the band covering here, match the reference exactly.
  const auto t = encode_dna("AC");
  const auto q = encode_dna("ACGTACGT");
  const auto got = banded_global_align(make_banded(t, q, 1, true));
  const auto ref = reference_align(make_full(t, q, true));
  EXPECT_EQ(got.score, ref.score);
  EXPECT_EQ(got.cigar.to_string(), ref.cigar.to_string());
}

TEST(Banded, SingleRowTargetCoversTheWholeQuery) {
  // Mirrors banded_corner_tlen1.repro: |T| <= 1 pinned every window to
  // column 0 pre-fix and the corner column was never in band.
  const auto t = encode_dna("A");
  const auto q = encode_dna("ACGTAC");
  const auto got = banded_global_align(make_banded(t, q, 1, true));
  const auto ref = reference_align(make_full(t, q, true));
  EXPECT_EQ(got.score, ref.score);
  EXPECT_EQ(got.cigar.to_string(), ref.cigar.to_string());
}

// --- banded production diff kernels ---

DiffArgs make_diff(const std::vector<u8>& t, const std::vector<u8>& q, bool cigar,
                   i32 band, i32 zdrop, AlignMode mode = AlignMode::kGlobal) {
  DiffArgs a = make_full(t, q, cigar, mode);
  a.band = band;
  a.zdrop = zdrop;
  return a;
}

TEST(BandedKernel, UnflaggedRunsAreBitExactAcrossIsas) {
  // Related pair (substitutions only): a 64-lane band covers the optimum,
  // so no backend may flag band_hit and every banded result must equal its
  // own unbanded run bit-for-bit, tie-breaks included. INT32_MAX is the
  // largest band --band accepts: it covers the whole matrix, so its bounds
  // must clip to the matrix rather than overflow.
  Rng rng(17);
  const auto t = random_seq(rng, 240);
  auto q = t;
  for (auto& b : q)
    if (rng.bernoulli(0.12)) b = rng.base();
  for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension})
    for (const i32 band : {64, INT32_MAX})
      for (const Layout layout : {Layout::kMinimap2, Layout::kManymap})
        for (const Isa isa : available_isas())
          for (const bool cigar : {false, true}) {
            const KernelFn k = get_diff_kernel(layout, isa);
            if (k == nullptr) continue;
            const AlignResult full = k(make_diff(t, q, cigar, 0, 0, mode));
            const AlignResult banded = k(make_diff(t, q, cigar, band, 0, mode));
            ASSERT_FALSE(banded.band_hit)
                << to_string(layout) << "/" << to_string(isa) << (cigar ? "/path" : "/score")
                << (mode == AlignMode::kGlobal ? "/global" : "/extension") << "/band " << band;
            EXPECT_EQ(banded.score, full.score);
            EXPECT_EQ(banded.t_end, full.t_end);
            EXPECT_EQ(banded.q_end, full.q_end);
            EXPECT_EQ(banded.cigar.to_string(), full.cigar.to_string());
          }
}

TEST(BandedKernel, NarrowBandOnSteepPairFlagsTheEscape) {
  // |T| = 300 vs |Q| = 30: the corner sits ~270 diagonals off center, far
  // outside band 2 — every backend must either flag band_hit (score mode /
  // flagged path mode) or throw BandHitError from the backtrack. The
  // unbanded rerun (the mapper's fallback) then matches the full kernel.
  Rng rng(18);
  const auto t = random_seq(rng, 300);
  const auto q = random_seq(rng, 30);
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap})
    for (const Isa isa : available_isas()) {
      const KernelFn k = get_diff_kernel(layout, isa);
      if (k == nullptr) continue;
      bool hit = false;
      AlignResult r;
      try {
        r = k(make_diff(t, q, true, 2, 0));
        hit = r.band_hit;
      } catch (const BandHitError&) {
        hit = true;
      }
      EXPECT_TRUE(hit) << to_string(layout) << "/" << to_string(isa);
      const AlignResult rerun = k(make_diff(t, q, true, 0, 0));
      const AlignResult full = k(make_diff(t, q, true, 0, 0));
      EXPECT_EQ(rerun.score, full.score);
      EXPECT_EQ(rerun.cigar.to_string(), full.cigar.to_string());
    }
}

TEST(BandedKernel, ZdropNeverBeatsTheOptimum) {
  // Adaptive X-drop prunes candidate paths, so a zdropped score can only
  // be <= the unbanded optimum; an unpruned, unflagged run must equal it.
  Rng rng(19);
  for (int it = 0; it < 10; ++it) {
    const auto t = random_seq(rng, 200);
    const auto q = random_seq(rng, 190);
    const KernelFn k = get_diff_kernel(Layout::kManymap, Isa::kScalar);
    ASSERT_NE(k, nullptr);
    const AlignResult full = k(make_diff(t, q, false, 0, 0));
    AlignResult banded;
    bool hit = false;
    try {
      banded = k(make_diff(t, q, false, 48, 15));
      hit = banded.band_hit;
    } catch (const BandHitError&) {
      hit = true;
    }
    if (hit) continue;  // fallback path; covered above
    EXPECT_LE(banded.score, full.score);
    if (!banded.zdropped) EXPECT_EQ(banded.score, full.score);
  }
}

// --- band plumbing in the mapper-facing option/estimate layer ---

TEST(BandOptions, StrictParsingNeverClamps) {
  MapOptions opt;
  EXPECT_TRUE(apply_band_option(opt, "251"));
  EXPECT_EQ(opt.band, 251);
  EXPECT_TRUE(apply_band_option(opt, "0"));  // explicit "unbanded"
  EXPECT_EQ(opt.band, 0);
  for (const char* bad : {"-1", "64x", "", "band", "auto", "9999999999999"}) {
    MapOptions scratch;
    EXPECT_FALSE(apply_band_option(scratch, bad)) << bad;
    EXPECT_FALSE(apply_zdrop_option(scratch, bad)) << bad;
    EXPECT_EQ(scratch.band, 0);  // rejected input must not half-apply
    EXPECT_EQ(scratch.zdrop, 0);
  }
  EXPECT_TRUE(apply_zdrop_option(opt, "400"));
  EXPECT_EQ(opt.zdrop, 400);
}

TEST(BandOptions, BandShrinksDirsFootprints) {
  // Banded dirs rows are O(band), not O(|Q|): the arena footprint and the
  // admission estimate must both shrink for long reads.
  const u64 full = detail::KernelArena::dirs_footprint(16000, 16000);
  const u64 banded = detail::KernelArena::dirs_footprint(16000, 16000, 251);
  EXPECT_LT(banded, full / 10);
  MapOptions opt;
  const u64 est_full = estimate_dirs_bytes(opt, 16000);
  opt.band = 251;
  EXPECT_LE(estimate_dirs_bytes(opt, 16000), est_full);
}

TEST(BandOptions, EstimateIsU64EndToEnd) {
  // Regression guard for the u32 narrowing: a multi-gigabase read length
  // must produce a >4 GiB estimate instead of wrapping modulo 2^32.
  MapOptions opt;
  EXPECT_GT(estimate_dirs_bytes(opt, u64{3'000'000'000}), u64{1} << 32);
}

// --- huge-gap advisory band (hugegap_band) ---

TEST(BandPolicy, HeadroomGrowsSublinearly) {
  // On a drift-free gap the band is 16 + indel headroom.
  const i32 h1 = hugegap_band(1'000, 1'000) - 16;
  const i32 h4 = hugegap_band(4'000, 4'000) - 16;
  EXPECT_GT(h1, 0);
  EXPECT_GT(h4, h1);          // monotone in length
  EXPECT_LE(h4, 2 * h1 + 1);  // sqrt law: 4x length -> ~2x headroom
}

TEST(BandPolicy, GapBandAlwaysCoversDriftPlusSlack) {
  Rng rng(7);
  int banded = 0;
  for (int it = 0; it < 200; ++it) {
    const u64 dt = 1'500 + rng.uniform(60'000);
    const u64 dq = dt - dt / 8 + rng.uniform(dt / 4);
    const i32 drift = static_cast<i32>(dt > dq ? dt - dq : dq - dt);
    const i32 band = hugegap_band(dt, dq);
    if (band == 0) continue;  // unprofitable: the exact kernel runs instead
    ++banded;
    if (band < 4096) {
      EXPECT_GE(band, drift + 16) << dt << "x" << dq;
    }
    EXPECT_LE(band, 4096);
  }
  EXPECT_GT(banded, 100);
}

// Walk a synthetic alignment path with 15% balanced indels and require the
// huge-gap band to cover the walk's maximum deviation from the band's
// center line (the straight line the measured drift pins).
TEST(BandPolicy, GapBandCoversSyntheticIndelWalkDeviation) {
  Rng rng(42);
  int banded = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const u32 steps = 200 + static_cast<u32>(rng.uniform(4'000));
    u64 dt = 0, dq = 0;
    std::vector<i64> diag{0};
    for (u32 i = 0; i < steps; ++i) {
      const u32 r = static_cast<u32>(rng.uniform(1'000));
      if (r < 75) ++dt;
      else if (r < 150) ++dq;
      else { ++dt; ++dq; }
      diag.push_back(static_cast<i64>(dt) - static_cast<i64>(dq));
    }
    if (dt == 0 || dq == 0) continue;
    const i64 net = static_cast<i64>(dt) - static_cast<i64>(dq);
    // Max |walk - straight chord| in diagonal units.
    i64 deviation = 0;
    for (std::size_t k = 0; k < diag.size(); ++k) {
      const i64 chord = net * static_cast<i64>(k) / static_cast<i64>(diag.size() - 1);
      deviation = std::max<i64>(deviation, std::abs(diag[k] - chord));
    }
    const i32 band = hugegap_band(dt, dq);
    if (band == 0) continue;  // unprofitable: the exact kernel runs instead
    ++banded;
    EXPECT_GE(static_cast<i64>(band), deviation)
        << "trial " << trial << " dt=" << dt << " dq=" << dq;
  }
  EXPECT_GT(banded, 100);
}

TEST(BandPolicy, ProfitabilityBoundary) {
  // 2*b+1 lanes vs 0.75 * min(dt, dq): a 1000-cell diagonal lets pinned
  // bands up to 374 pay off (749 < 750); 375 does not (751 >= 750).
  EXPECT_EQ(hugegap_band(2'000, 1'000, 374), 374);
  EXPECT_EQ(hugegap_band(2'000, 1'000, 375), 0);
  // Unpinned, the 1000-base drift alone makes the band unprofitable.
  EXPECT_EQ(hugegap_band(2'000, 1'000), 0);
  EXPECT_EQ(hugegap_band(2'000, 1'000, -3), 0);
  // A huge pinned band never pays and never overflows.
  EXPECT_EQ(hugegap_band(100'000, 100'000, INT32_MAX), 0);
}

// --- fixed-band rerun contract through the whole mapper ---
// The AutoBandMapper suite name predates the removal of `--band auto`;
// the two contracts it pins now hold for the one fixed band setting.

struct PinnedBandCase {
  Reference ref;
  std::vector<SimulatedRead> reads;
};

// 30 kbp genome, 4 PacBio reads of at most 4 kbp.
PinnedBandCase pinned_band_case(u64 seed) {
  GenomeParams gp;
  gp.total_length = 30'000;
  gp.num_contigs = 1;
  gp.seed = seed;
  PinnedBandCase c{generate_genome(gp), {}};
  ReadSimParams rp;
  rp.num_reads = 4;
  rp.seed = seed * 13 + 1;
  rp.profile = ErrorProfile::pacbio();
  rp.profile.max_length = 4'000;
  c.reads = ReadSimulator(c.ref, rp).simulate();
  return c;
}

// Keep every gap fill under the huge-gap cap: that advisory fill takes a
// pinned band by design, so it is the one place a band may matter.
MapOptions pinned_band_options() {
  MapOptions opt = MapOptions::map_pb();
  opt.chain.max_dist = 1'000;
  return opt;
}

TEST(AutoBandMapper, HostilePolicyFallsBackLoudlyNotWrongly) {
  for (const u64 seed : {101u, 202u, 303u}) {
    const PinnedBandCase c = pinned_band_case(seed);
    ASSERT_FALSE(c.reads.empty());
    const Mapper m(c.ref, pinned_band_options());

    MapTimings t;
    MapCall narrow;  // 1-wide pinned band: on 15%-error reads it escapes
    narrow.band = 1;
    narrow.timings = &t;
    for (const auto& sr : c.reads)
      EXPECT_EQ(to_paf_block(m.map(sr.read, narrow), true),
                to_paf_block(m.map(sr.read), true))
          << "seed " << seed << " " << sr.read.name;
    // Escapes surface as counted reruns, never as silent divergence.
    EXPECT_GT(t.auto_band_kernels, 0u) << "seed " << seed;
    EXPECT_GT(t.band_fallbacks, 0u) << "seed " << seed;
    EXPECT_LE(t.band_fallbacks, t.auto_band_kernels);
    EXPECT_EQ(t.auto_band_full, 0u);
  }
}

TEST(AutoBandMapper, ExplicitCallBandOverridesAutoMode) {
  for (const u64 seed : {101u, 202u, 303u}) {
    const PinnedBandCase c = pinned_band_case(seed);
    ASSERT_FALSE(c.reads.empty());
    MapOptions opt = pinned_band_options();
    const Mapper unbanded(c.ref, opt);
    opt.band = 64;
    const Mapper banded(c.ref, opt);

    MapTimings t;
    MapCall off;  // explicit 0 overrides MapOptions::band = 64
    off.band = 0;
    off.timings = &t;
    for (const auto& sr : c.reads)
      EXPECT_EQ(to_paf_block(banded.map(sr.read, off), true),
                to_paf_block(unbanded.map(sr.read), true))
          << "seed " << seed << " " << sr.read.name;
    EXPECT_EQ(t.auto_band_kernels, 0u) << "seed " << seed;
    EXPECT_EQ(t.band_fallbacks, 0u);
    EXPECT_GT(t.auto_band_full, 0u);
  }
}

// --- SAM output ---

TEST(Sam, HeaderListsContigs) {
  GenomeParams g;
  g.total_length = 2000;
  g.num_contigs = 2;
  const Reference ref = generate_genome(g);
  const std::string h = sam_header(ref);
  EXPECT_NE(h.find("@HD"), std::string::npos);
  EXPECT_NE(h.find("@SQ\tSN:chr1\tLN:1000"), std::string::npos);
  EXPECT_NE(h.find("@SQ\tSN:chr2\tLN:1000"), std::string::npos);
  EXPECT_NE(h.find("@PG"), std::string::npos);
}

Mapping example_mapping() {
  Mapping m;
  m.qname = "r1";
  m.qlen = 20;
  m.qstart = 2;
  m.qend = 18;
  m.rev = false;
  m.rname = "chr1";
  m.rlen = 1000;
  m.tstart = 99;
  m.tend = 115;
  m.mapq = 60;
  m.primary = true;
  m.matches = 15;
  m.align_length = 16;
  m.cigar = Cigar::from_string("16M");
  m.score = 28;
  return m;
}

TEST(Sam, ForwardRecordFields) {
  Sequence read = Sequence::from_ascii("r1", "ACGTACGTACGTACGTACGT");
  const std::string line = to_sam(example_mapping(), read);
  // qname flag rname pos mapq cigar
  EXPECT_EQ(line.substr(0, line.find('\t')), "r1");
  EXPECT_NE(line.find("\t0\tchr1\t100\t60\t2S16M2S\t"), std::string::npos);
  EXPECT_NE(line.find("ACGTACGTACGTACGTACGT"), std::string::npos);
  EXPECT_NE(line.find("AS:i:28"), std::string::npos);
  EXPECT_NE(line.find("NM:i:1"), std::string::npos);
}

TEST(Sam, ReverseRecordFlipsSeqAndClips) {
  Mapping m = example_mapping();
  m.rev = true;
  m.qstart = 2;
  m.qend = 18;
  Sequence read = Sequence::from_ascii("r1", "AACCGGTTAACCGGTTAACC");
  const std::string line = to_sam(m, read);
  EXPECT_NE(line.find("\t16\t"), std::string::npos);  // reverse flag
  // clips swap on the reverse strand: left clip = qlen - qend = 2.
  EXPECT_NE(line.find("\t2S16M2S\t"), std::string::npos);
  EXPECT_NE(line.find(reverse_complement_ascii("AACCGGTTAACCGGTTAACC")),
            std::string::npos);
}

TEST(Sam, SecondaryFlag) {
  Mapping m = example_mapping();
  m.primary = false;
  Sequence read = Sequence::from_ascii("r1", "ACGTACGTACGTACGTACGT");
  const std::string line = to_sam(m, read);
  EXPECT_NE(line.find("\t256\t"), std::string::npos);
}

TEST(Sam, UnmappedRecord) {
  Sequence read = Sequence::from_ascii("lost", "ACGT");
  const std::string line = to_sam_unmapped(read);
  EXPECT_NE(line.find("lost\t4\t*\t0\t0\t*"), std::string::npos);
  const std::string block = to_sam_block({}, read);
  EXPECT_EQ(block, line + "\n");
}

TEST(Sam, QualityHandling) {
  Sequence read = Sequence::from_ascii("q", "ACGT");
  read.qual = "FFII";
  Mapping m = example_mapping();
  m.qlen = 4;
  m.qstart = 0;
  m.qend = 4;
  m.cigar = Cigar::from_string("4M");
  std::string line = to_sam(m, read);
  EXPECT_NE(line.find("\tFFII\t"), std::string::npos);
  m.rev = true;
  line = to_sam(m, read);
  EXPECT_NE(line.find("\tIIFF\t"), std::string::npos);  // reversed qual
}

}  // namespace
}  // namespace manymap
