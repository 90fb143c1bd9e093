#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "base/random.hpp"
#include "chain/chain.hpp"
#include "simulate/genome.hpp"

namespace manymap {
namespace {

Anchor mk(u32 tpos, u32 qpos, u32 rid = 0, bool rev = false) {
  return Anchor{rid, tpos, qpos, rev};
}

ChainParams params() {
  ChainParams p;
  p.seed_length = 15;
  p.min_count = 3;
  p.min_score = 30;
  return p;
}

TEST(Chain, EmptyInput) { EXPECT_TRUE(chain_anchors({}, params()).empty()); }

TEST(Chain, PerfectColinearRun) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 10; ++i) anchors.push_back(mk(1000 + i * 100, 50 + i * 100));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors.size(), 10u);
  EXPECT_TRUE(chains[0].primary);
  EXPECT_EQ(chains[0].tstart(), 1000u);
  EXPECT_EQ(chains[0].tend(), 1900u);
  EXPECT_EQ(chains[0].qstart(), 50u);
  // Perfect colinearity: score ~ anchors * min(gap, seed_len)
  EXPECT_GT(chains[0].score, 100);
}

TEST(Chain, AnchorsInIncreasingOrder) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 8; ++i) anchors.push_back(mk(10 + i * 40, 5 + i * 42));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_FALSE(chains.empty());
  for (std::size_t i = 1; i < chains[0].anchors.size(); ++i) {
    EXPECT_LT(chains[0].anchors[i - 1].tpos, chains[0].anchors[i].tpos);
    EXPECT_LT(chains[0].anchors[i - 1].qpos, chains[0].anchors[i].qpos);
  }
}

TEST(Chain, SplitsAcrossContigs) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50, 0));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50, 1));
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    if (a.rid != b.rid) return a.rid < b.rid;
    return a.tpos < b.tpos;
  });
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_NE(chains[0].rid, chains[1].rid);
}

TEST(Chain, SplitsAcrossStrands) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50, 0, false));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(5000 + i * 50, 10 + i * 50, 0, true));
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    if (a.rev != b.rev) return !a.rev;
    return a.tpos < b.tpos;
  });
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_NE(chains[0].rev, chains[1].rev);
}

TEST(Chain, LargeGapBreaksChain) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50));
  // second cluster far away on the target (gap > max_dist)
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(100'000 + i * 50, 400 + i * 50));
  const auto chains = chain_anchors(anchors, params());
  EXPECT_EQ(chains.size(), 2u);
}

TEST(Chain, BandwidthViolationBreaksChain) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(100 + i * 50, 10 + i * 50));
  // diagonal jump of 2000 (> bandwidth 500) though distance is small
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(400 + i * 50, 2400 + i * 50));
  const auto chains = chain_anchors(anchors, params());
  EXPECT_EQ(chains.size(), 2u);
}

TEST(Chain, MinCountFiltersShortChains) {
  std::vector<Anchor> anchors{mk(100, 10), mk(200, 110)};
  EXPECT_TRUE(chain_anchors(anchors, params()).empty());
}

TEST(Chain, SecondaryMarkedOnQueryOverlap) {
  // Two chains covering the same query interval at different targets
  // (a repeat): the weaker must be secondary.
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 8; ++i) anchors.push_back(mk(1000 + i * 30, 50 + i * 30));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(50'000 + i * 30, 50 + i * 30));
  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) { return a.tpos < b.tpos; });
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_TRUE(chains[0].primary);
  EXPECT_FALSE(chains[1].primary);
  EXPECT_GE(chains[0].score, chains[1].score);
}

TEST(Chain, NonOverlappingChainsBothPrimary) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(1000 + i * 30, 50 + i * 30));
  for (u32 i = 0; i < 5; ++i) anchors.push_back(mk(50'000 + i * 30, 3000 + i * 30));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_TRUE(chains[0].primary);
  EXPECT_TRUE(chains[1].primary);
}

TEST(Chain, ScoresSortedDescending) {
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 12; ++i) anchors.push_back(mk(1000 + i * 30, 50 + i * 30));
  for (u32 i = 0; i < 4; ++i) anchors.push_back(mk(90'000 + i * 30, 5000 + i * 30));
  const auto chains = chain_anchors(anchors, params());
  for (std::size_t i = 1; i < chains.size(); ++i)
    EXPECT_GE(chains[i - 1].score, chains[i].score);
}

TEST(Chain, ToleratesSmallIndelOffsets) {
  // Anchors drift off-diagonal by small indels: still one chain.
  std::vector<Anchor> anchors;
  u32 t = 100, q = 10;
  for (u32 i = 0; i < 10; ++i) {
    anchors.push_back(mk(t, q));
    t += 60;
    q += (i % 2 == 0) ? 57 : 63;  // +-3 bp indels
  }
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].anchors.size(), 10u);
}

// Regression: the chain DP look-back terminates on dt > max_dist (valid:
// anchors are sorted by tpos) but must NOT terminate on dq > max_dist —
// qpos is not monotone in that order. A stray anchor (e.g. a repeat hit
// that slipped past the occ mask) sitting at a nearby tpos but far-away
// qpos used to hide every predecessor beyond it and split the chain at
// an otherwise perfectly jumpable gap.
TEST(ChainGeometry, StrayAnchorDoesNotSplitChainAtJumpableGap) {
  std::vector<Anchor> anchors;
  // Two colinear groups on diagonal +1000, separated by a 900-base gap
  // (well under max_dist = 5000).
  for (u32 i = 0; i < 20; ++i) anchors.push_back(mk(6000 + i * 10 + 1000, 6000 + i * 10));
  for (u32 i = 0; i < 20; ++i) anchors.push_back(mk(7090 + i * 10 + 1000, 7090 + i * 10));
  // Stray: tpos just before the second group (dt = 50 from its first
  // anchor), qpos near the read start (dq > max_dist).
  anchors.push_back(mk(8040, 10));
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    return std::tie(a.rid, a.rev, a.tpos, a.qpos) < std::tie(b.rid, b.rev, b.tpos, b.qpos);
  });
  const auto chains = chain_anchors(anchors, ChainParams{});
  ASSERT_FALSE(chains.empty());
  EXPECT_EQ(chains.front().anchors.size(), 40u)
      << "gap-adjacent groups must chain through the stray anchor";
  EXPECT_EQ(chains.front().qstart(), 6000u);
  EXPECT_EQ(chains.front().qend(), 7280u);
}

// --- The order contract of chain_anchors (chain.hpp) ---

bool same_chains(const std::vector<Chain>& a, const std::vector<Chain>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].anchors != b[i].anchors || a[i].score != b[i].score || a[i].rid != b[i].rid ||
        a[i].rev != b[i].rev || a[i].primary != b[i].primary)
      return false;
  }
  return true;
}

TEST(ChainOrder, EqualScoreChainsComeOutByTailIndex) {
  // Four copies of one 8-anchor chain, far apart on the target and
  // disjoint on the query: every tail has the same f and every chain the
  // same score. The documented order peels tails by f descending, then
  // tail index ascending, and the stable score sort keeps peel order, so
  // the chains come out in input (tpos) order. 32 anchors are enough for
  // std::sort to partition rather than insertion-sort.
  std::vector<Anchor> anchors;
  for (u32 c = 0; c < 4; ++c)
    for (u32 i = 0; i < 8; ++i) anchors.push_back(mk(20'000 * (c + 1) + i * 40, 1'000 * c + i * 40));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 4u);
  for (u32 c = 0; c < 4; ++c) {
    EXPECT_EQ(chains[c].score, chains[0].score);
    EXPECT_EQ(chains[c].tstart(), 20'000 * (c + 1)) << "chain " << c;
    EXPECT_TRUE(chains[c].primary);
  }
  for (int rep = 0; rep < 3; ++rep) EXPECT_TRUE(same_chains(chain_anchors(anchors, params()), chains));
}

TEST(ChainOrder, EqualScoreSecondariesKeepPeelOrder) {
  // A primary chain plus three equal-score copies over the same query
  // interval: the copies are secondary, and they keep tail-index order.
  std::vector<Anchor> anchors;
  for (u32 i = 0; i < 12; ++i) anchors.push_back(mk(1'000 + i * 40, 100 + i * 40));
  for (u32 c = 1; c <= 3; ++c)
    for (u32 i = 0; i < 6; ++i) anchors.push_back(mk(30'000 * c + i * 40, 100 + i * 40));
  const auto chains = chain_anchors(anchors, params());
  ASSERT_EQ(chains.size(), 4u);
  EXPECT_TRUE(chains[0].primary);
  EXPECT_EQ(chains[0].anchors.size(), 12u);
  for (u32 c = 1; c <= 3; ++c) {
    EXPECT_FALSE(chains[c].primary);
    EXPECT_EQ(chains[c].score, chains[1].score);
    EXPECT_EQ(chains[c].tstart(), 30'000 * c) << "chain " << c;
  }
  EXPECT_TRUE(same_chains(chain_anchors(anchors, params()), chains));
}

// --- The chain DP's gap cost ---
//
// minimap2's cost of linking anchors whose diagonals differ by dd:
//   gap(dd) = int(0.01 * k * dd) + (floor(log2(dd)) >> 1), and 0 at dd = 0.
// Written out for k = 15 at the dd values under test (bandwidth = 500).
struct GapCase {
  u32 dd;
  i32 gap;
};
constexpr GapCase kGapCases[] = {{0, 0}, {1, 0}, {2, 0}, {3, 0},    {4, 1},
                                 {7, 2}, {8, 2}, {100, 18}, {500, 79}};

TEST(ChainGap, TwoAnchorChainScoresMatchTheWrittenOutCost) {
  // A bare pair links only while gap(dd) < min(dq, dt, k): a link must
  // beat the lone anchor's k. dq = 10 puts min(dq, dt, k) below k.
  ChainParams p = params();
  p.min_count = 2;
  p.min_score = 1;
  const u32 k = p.seed_length;
  for (const GapCase& g : kGapCases) {
    for (const u32 dq : {10u, 60u}) {
      const u32 dt = dq + g.dd;
      const i32 match = static_cast<i32>(std::min({dq, dt, k}));
      const auto chains = chain_anchors({mk(1'000, 1'000), mk(1'000 + dt, 1'000 + dq)}, p);
      if (match <= g.gap) {
        EXPECT_TRUE(chains.empty()) << "dd " << g.dd << " dq " << dq;
        continue;
      }
      ASSERT_EQ(chains.size(), 1u) << "dd " << g.dd << " dq " << dq;
      EXPECT_EQ(chains[0].score, static_cast<i32>(k) + match - g.gap) << "dd " << g.dd;
    }
  }
}

TEST(ChainGap, LinkAcrossEveryDdScoresExactlyAndBandwidthPlusOneSplits) {
  // The link under test joins two diagonal runs, so it is taken even where
  // gap(dd) > k: 8 lead-in anchors, then 8 on a diagonal shifted by dd on
  // the target. Every in-run link adds k, the bridge adds k - gap(dd).
  const ChainParams p = params();
  const u32 k = p.seed_length;
  const auto build = [](u32 dd) {
    std::vector<Anchor> anchors;
    for (u32 i = 0; i < 8; ++i) anchors.push_back(mk(1'000 + i * 50, 1'000 + i * 50));
    for (u32 i = 0; i < 8; ++i) anchors.push_back(mk(1'400 + dd + i * 50, 1'400 + i * 50));
    return anchors;
  };
  for (const GapCase& g : kGapCases) {
    const auto chains = chain_anchors(build(g.dd), p);
    ASSERT_EQ(chains.size(), 1u) << "dd " << g.dd;
    EXPECT_EQ(chains[0].anchors.size(), 16u) << "dd " << g.dd;
    EXPECT_EQ(chains[0].score, static_cast<i32>(16 * k) - g.gap) << "dd " << g.dd;
  }
  // One past the bandwidth no anchor pair across the runs links.
  const auto split = chain_anchors(build(p.bandwidth + 1), p);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].anchors.size(), 8u);
  EXPECT_EQ(split[1].anchors.size(), 8u);
  EXPECT_EQ(split[0].score, static_cast<i32>(8 * k));
  EXPECT_EQ(split[0].score, split[1].score);
}

// --- collect_anchors against a brute-force reference ---

/// What collect_anchors promises, built the obvious way: every hit of every
/// minimizer with at most `max_occ` hits, then a full sort on (rid, rev,
/// tpos, qpos).
std::vector<Anchor> brute_force_anchors(const MinimizerIndex& index,
                                        const std::vector<Minimizer>& mins, u32 qlen,
                                        u32 max_occ) {
  const u32 k = index.params().k;
  std::vector<Anchor> out;
  for (const Minimizer& qm : mins) {
    const auto hits = index.lookup(qm.key);
    if (hits.size() > max_occ) continue;
    for (const IndexEntry& h : hits) {
      const bool rev = h.strand_rev != qm.strand_rev;
      out.push_back(Anchor{h.rid, h.pos, rev ? qlen - 1 - (qm.pos - (k - 1)) : qm.pos, rev});
    }
  }
  std::sort(out.begin(), out.end(), [](const Anchor& a, const Anchor& b) {
    return std::tie(a.rid, a.rev, a.tpos, a.qpos) < std::tie(b.rid, b.rev, b.tpos, b.qpos);
  });
  return out;
}

/// collect_anchors on `read`, checked against the brute-force reference.
std::vector<Anchor> checked_anchors(const MinimizerIndex& index, const std::vector<u8>& read,
                                    u32 max_occ) {
  const auto mins = sketch(read, 0, index.params());
  const u32 qlen = static_cast<u32>(read.size());
  const auto got = collect_anchors(index, mins, qlen, max_occ);
  EXPECT_EQ(got, brute_force_anchors(index, mins, qlen, max_occ));
  return got;
}

/// Adjacent anchors with equal (rid, rev, tpos): the ties that only the
/// emission order puts in qpos order.
std::size_t tied_positions(const std::vector<Anchor>& a) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < a.size(); ++i)
    n += a[i].rid == a[i - 1].rid && a[i].rev == a[i - 1].rev && a[i].tpos == a[i - 1].tpos;
  return n;
}

std::vector<u8> random_bases(Rng& rng, std::size_t n) {
  std::vector<u8> out(n);
  for (auto& b : out) b = static_cast<u8>(rng.uniform(4));
  return out;
}

TEST(AnchorOrder, MatchesBruteForceOnRepeatsStrandsAndTwoContigs) {
  GenomeParams g;
  g.total_length = 300'000;
  g.num_contigs = 2;
  g.repeat_families = 6;
  g.repeat_length = 2'000;
  g.repeat_copies = 8;
  g.repeat_divergence = 0.005;
  g.seed = 3;
  const Reference ref = generate_genome(g);
  const MinimizerIndex index = MinimizerIndex::build(ref, SketchParams{});
  Rng rng(11);
  bool saw_rid[2] = {false, false}, saw_rev[2] = {false, false};
  std::size_t repeat_hits = 0;
  for (int r = 0; r < 40; ++r) {
    const std::size_t cid = rng.uniform(2);
    const auto fwd = ref.extract(cid, rng.uniform(ref.contig(cid).size() - 6'000), 6'000);
    for (const auto& read : {fwd, reverse_complement(fwd)}) {
      for (const u32 max_occ : {1u, 4u, 1'000u}) {
        const auto anchors = checked_anchors(index, read, max_occ);
        for (const Anchor& a : anchors) {
          saw_rid[a.rid] = true;
          saw_rev[a.rev] = true;
        }
        if (max_occ == 1'000u) repeat_hits += anchors.size() > read.size() / 6;
      }
    }
  }
  EXPECT_TRUE(saw_rid[0] && saw_rid[1]);
  EXPECT_TRUE(saw_rev[0] && saw_rev[1]);
  EXPECT_GT(repeat_hits, 0u) << "no read hit a planted repeat";
}

TEST(AnchorOrder, TandemRepeatTiesOnBothStrandsAndBothContigs) {
  // A 37 bp unit repeated 30 times sits once in each contig and makes up
  // the read, so one reference k-mer matches several query positions:
  // equal (rid, rev, tpos) with different qpos, the order the radix sort
  // leaves to the emission order.
  Rng rng(5);
  const auto unit = random_bases(rng, 37);
  std::vector<u8> tandem;
  for (int i = 0; i < 30; ++i) tandem.insert(tandem.end(), unit.begin(), unit.end());
  Reference ref;
  for (const char* name : {"chrA", "chrB"}) {
    Sequence contig;
    contig.name = name;
    contig.codes = random_bases(rng, 20'000);
    contig.codes.insert(contig.codes.begin() + 9'000, tandem.begin(), tandem.end());
    ref.add(std::move(contig));
  }
  const MinimizerIndex index = MinimizerIndex::build(ref, SketchParams{});
  auto read = random_bases(rng, 500);
  read.insert(read.end(), tandem.begin(), tandem.end());
  const auto tail = random_bases(rng, 500);
  read.insert(read.end(), tail.begin(), tail.end());
  for (const auto& r : {read, reverse_complement(read)}) {
    const auto anchors = checked_anchors(index, r, 10'000);
    EXPECT_GT(tied_positions(anchors), 100u);
    EXPECT_TRUE(std::any_of(anchors.begin(), anchors.end(), [](const Anchor& a) { return a.rid == 1; }));
  }
}

TEST(AnchorOrder, MaxOccKeepsAKeyAtItsCountAndDropsItOneBelow) {
  GenomeParams g;
  g.total_length = 200'000;
  g.num_contigs = 2;
  g.seed = 9;
  const Reference ref = generate_genome(g);
  const MinimizerIndex index = MinimizerIndex::build(ref, SketchParams{});
  const auto read = ref.extract(0, 10'000, 20'000);
  const auto mins = sketch(read, 0, index.params());
  // The read's most frequent key.
  u32 most = 0;
  for (const Minimizer& m : mins) most = std::max<u32>(most, index.occurrences(m.key));
  ASSERT_GE(most, 2u) << "the planted repeats give some key several hits";
  const auto kept = checked_anchors(index, read, most);
  const auto dropped = checked_anchors(index, read, most - 1);
  EXPECT_GE(kept.size(), dropped.size() + most);
}

TEST(AnchorOrder, EmptyIndexAndShortReadGiveNoAnchors) {
  Rng rng(2);
  const auto read = random_bases(rng, 2'000);
  const MinimizerIndex none;
  EXPECT_TRUE(collect_anchors(none, sketch(read, 0, SketchParams{}), 2'000, 100).empty());
  const MinimizerIndex empty_ref = MinimizerIndex::build(Reference{}, SketchParams{});
  EXPECT_TRUE(checked_anchors(empty_ref, read, 100).empty());

  GenomeParams g;
  g.total_length = 50'000;
  g.num_contigs = 1;
  const Reference ref = generate_genome(g);
  const MinimizerIndex index = MinimizerIndex::build(ref, SketchParams{});
  const auto short_read = ref.extract(0, 1'000, SketchParams{}.k - 1);
  EXPECT_TRUE(checked_anchors(index, short_read, 100).empty());
  EXPECT_FALSE(checked_anchors(index, ref.extract(0, 1'000, 2'000), 100).empty());
}

}  // namespace
}  // namespace manymap
