#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

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

}  // namespace
}  // namespace manymap
