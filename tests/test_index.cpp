#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <tuple>

#include "index/hash_index.hpp"
#include "index/index_io.hpp"
#include "index/minimizer.hpp"
#include "simulate/genome.hpp"

namespace manymap {
namespace {

std::vector<u8> random_seq(u64 seed, std::size_t n) {
  Rng rng(seed);
  std::vector<u8> s(n);
  for (auto& b : s) b = rng.base();
  return s;
}

TEST(Minimizer, ShortSequenceYieldsNothing) {
  const SketchParams p{15, 10};
  EXPECT_TRUE(sketch(random_seq(1, 10), 0, p).empty());
}

TEST(Minimizer, Deterministic) {
  const auto s = random_seq(2, 500);
  const SketchParams p{15, 10};
  EXPECT_EQ(sketch(s, 0, p), sketch(s, 0, p));
}

TEST(Minimizer, WindowGuarantee) {
  // Every window of w consecutive k-mer positions must contain at least one
  // selected minimizer (the defining property of the scheme).
  const auto s = random_seq(3, 2000);
  const SketchParams p{15, 10};
  const auto mins = sketch(s, 0, p);
  ASSERT_FALSE(mins.empty());
  std::set<u32> positions;
  for (const auto& m : mins) positions.insert(m.pos);
  // k-mer end positions range over [k-1, n-1]; check every full window.
  for (u32 win_end = p.k - 1 + p.w - 1; win_end < s.size(); ++win_end) {
    bool covered = false;
    for (u32 e = win_end - (p.w - 1); e <= win_end; ++e)
      if (positions.count(e)) covered = true;
    EXPECT_TRUE(covered) << "window ending at " << win_end << " has no minimizer";
    if (!covered) break;
  }
}

TEST(Minimizer, DensityNearTwoOverW) {
  const auto s = random_seq(4, 20'000);
  const SketchParams p{15, 10};
  const auto mins = sketch(s, 0, p);
  const double density = static_cast<double>(mins.size()) / static_cast<double>(s.size());
  // Expected density of random minimizers is ~2/(w+1).
  EXPECT_NEAR(density, 2.0 / (p.w + 1), 0.05);
}

TEST(Minimizer, StrandSymmetry) {
  // The canonical minimizer keys of a sequence and its reverse complement
  // must be identical (positions mirrored).
  const auto s = random_seq(5, 800);
  const auto rc = reverse_complement(s);
  const SketchParams p{15, 10};
  const auto fwd = sketch(s, 0, p);
  const auto rev = sketch(rc, 0, p);
  ASSERT_EQ(fwd.size(), rev.size());
  std::multiset<u64> fk, rk;
  for (const auto& m : fwd) fk.insert(m.key);
  for (const auto& m : rev) rk.insert(m.key);
  EXPECT_EQ(fk, rk);
  // And positions mirror: k-mer ending at pos maps to ending at n-1-pos+k-1.
  std::multiset<u32> fpos, rpos_mapped;
  for (const auto& m : fwd) fpos.insert(m.pos);
  for (const auto& m : rev)
    rpos_mapped.insert(static_cast<u32>(s.size()) - 1 - m.pos + (p.k - 1));
  EXPECT_EQ(fpos, rpos_mapped);
}

TEST(Minimizer, NBreaksKmers) {
  auto s = random_seq(6, 300);
  for (std::size_t i = 100; i < 130; ++i) s[i] = kBaseN;
  const SketchParams p{15, 10};
  const auto mins = sketch(s, 0, p);
  for (const auto& m : mins) {
    // No selected k-mer may overlap the N block [100,130).
    const u32 start = m.pos - (p.k - 1);
    EXPECT_TRUE(m.pos < 100 || start >= 130) << "k-mer at " << m.pos << " overlaps N";
  }
}

/// Brute-force sketch: hash every k-mer from scratch, then scan each full
/// window for its smallest valid hash (ties to the rightmost position),
/// suppressing consecutive duplicates.
std::vector<Minimizer> sketch_by_window(const std::vector<u8>& seq, u32 rid,
                                        const SketchParams& p) {
  const std::size_t n = seq.size();
  const u64 mask = (1ULL << (2 * p.k)) - 1;
  std::vector<std::optional<Minimizer>> kmer(n);  // canonical k-mer ending at j
  for (std::size_t j = p.k - 1; j < n; ++j) {
    u64 fwd = 0, rev = 0;
    bool has_n = false;
    for (std::size_t x = j + 1 - p.k; x <= j; ++x) {
      has_n |= seq[x] > 3;
      fwd = (fwd << 2) | (seq[x] & 3);
      rev |= static_cast<u64>(3 - (seq[x] & 3)) << (2 * (x + p.k - 1 - j));
    }
    if (has_n || fwd == rev) continue;
    kmer[j] = Minimizer{invertible_hash(std::min(fwd, rev), mask), static_cast<u32>(j), rid,
                        rev < fwd};
  }
  std::vector<Minimizer> out;
  for (std::size_t i = p.k + p.w - 2; i < n; ++i) {
    std::optional<Minimizer> best;
    for (std::size_t j = i + 1 - p.w; j <= i; ++j) {
      if (kmer[j] && (!best || kmer[j]->key <= best->key)) best = kmer[j];
    }
    if (best && (out.empty() || !(out.back() == *best))) out.push_back(*best);
  }
  return out;
}

TEST(Minimizer, MatchesBruteForceWindowScan) {
  // Small alphabets force hash ties and palindromes; N runs break k-mers.
  Rng rng(20241018);
  for (int c = 0; c < 1000; ++c) {
    SketchParams p;
    p.k = static_cast<u32>(rng.uniform_range(4, 28));
    p.w = std::array<u32, 4>{1, 2, 10, 256}[rng.uniform(4)];
    std::vector<u8> letters = {0, 1, 2, 3};
    std::shuffle(letters.begin(), letters.end(), std::mt19937_64(rng.next_u64()));
    letters.resize(1 + rng.uniform(4));
    std::vector<u8> seq(rng.uniform_range(1, 1200));
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (rng.bernoulli(0.005)) {
        for (u64 r = 1 + rng.uniform(40); r > 0 && i < seq.size(); --r) seq[i++] = 4;
        if (i == seq.size()) break;
      }
      seq[i] = letters[rng.uniform(letters.size())];
    }
    const u32 rid = static_cast<u32>(rng.uniform(3));
    ASSERT_EQ(sketch(seq, rid, p), sketch_by_window(seq, rid, p))
        << "case " << c << " k=" << p.k << " w=" << p.w << " len=" << seq.size()
        << " letters=" << letters.size();
  }
}

TEST(Minimizer, InvertibleHashIsBijectiveOnSmallDomain) {
  const u64 mask = (1ULL << 16) - 1;
  std::set<u64> seen;
  for (u64 x = 0; x <= mask; ++x) seen.insert(invertible_hash(x, mask));
  EXPECT_EQ(seen.size(), mask + 1);
}

TEST(HashIndex, LookupFindsAllOccurrences) {
  Reference ref;
  ref.add(Sequence{"c1", random_seq(7, 5000), ""});
  ref.add(Sequence{"c2", random_seq(8, 3000), ""});
  const SketchParams p{15, 10};
  const auto idx = MinimizerIndex::build(ref, p);
  EXPECT_EQ(idx.contigs().size(), 2u);
  EXPECT_GT(idx.num_keys(), 0u);

  // Rebuild the expected key -> entries map from raw sketches.
  std::map<u64, std::vector<IndexEntry>> expected;
  for (u32 cid = 0; cid < 2; ++cid)
    for (const auto& m : sketch(ref.contig(cid).codes, cid, p))
      expected[m.key].push_back({m.rid, m.pos, m.strand_rev});
  u64 entries = 0;
  for (const auto& [key, ents] : expected) {
    const auto hits = idx.lookup(key);
    ASSERT_EQ(hits.size(), ents.size());
    entries += ents.size();
    for (const auto& e : ents) {
      bool found = false;
      for (const auto& h : hits) found |= h == e;
      EXPECT_TRUE(found);
    }
  }
  EXPECT_EQ(idx.num_entries(), entries);
  EXPECT_EQ(idx.num_keys(), expected.size());
}

TEST(HashIndex, MissingKeyIsEmpty) {
  Reference ref;
  ref.add(Sequence{"c1", random_seq(9, 2000), ""});
  const auto idx = MinimizerIndex::build(ref, SketchParams{15, 10});
  EXPECT_TRUE(idx.lookup(0xdeadbeefcafeULL).empty());
  EXPECT_EQ(idx.occurrences(0xdeadbeefcafeULL), 0u);
}

TEST(HashIndex, OccurrenceCutoff) {
  Reference ref;
  ref.add(Sequence{"c1", random_seq(10, 20'000), ""});
  const auto idx = MinimizerIndex::build(ref, SketchParams{15, 10});
  const u32 cutoff = idx.occurrence_cutoff(2e-4);
  EXPECT_GE(cutoff, 10u);  // floor
  EXPECT_GT(idx.memory_bytes(), 0u);
}

TEST(HashIndex, BuildOrderAndCutoffMatchFullSorts) {
  // Entries are in (key, rid, pos) order for every key width (k = 28 is
  // 56 bits), and the cutoff is the count at its rank in sorted order.
  GenomeParams g;
  g.total_length = 120'000;
  g.num_contigs = 3;
  g.seed = 99;
  const Reference ref = generate_genome(g);
  for (const SketchParams p : {SketchParams{4, 1}, SketchParams{15, 10}, SketchParams{28, 5}}) {
    std::vector<std::pair<u64, IndexEntry>> want;
    for (u32 cid = 0; cid < ref.num_contigs(); ++cid)
      for (const auto& m : sketch(ref.contig(cid).codes, cid, p))
        want.push_back({m.key, IndexEntry{m.rid, m.pos, m.strand_rev}});
    std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      return std::tie(a.first, a.second.rid, a.second.pos) <
             std::tie(b.first, b.second.rid, b.second.pos);
    });
    const auto idx = MinimizerIndex::build(ref, p);
    ASSERT_EQ(idx.entries().size(), want.size()) << "k=" << p.k;
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(idx.entries()[i], want[i].second) << "k=" << p.k << " entry " << i;

    std::vector<u32> counts;
    for (const auto& b : idx.buckets())
      if (b.count > 0) counts.push_back(b.count);
    std::sort(counts.begin(), counts.end());
    for (const double frac : {0.0, 2e-4, 0.01, 0.5}) {
      const auto drop = static_cast<std::size_t>(frac * static_cast<double>(counts.size()));
      EXPECT_EQ(idx.occurrence_cutoff(frac), std::max<u32>(counts[counts.size() - 1 - drop], 10))
          << "k=" << p.k << " frac=" << frac;
    }
  }
}

TEST(IndexIo, RoundTripBothLoaders) {
  Reference ref;
  ref.add(Sequence{"contig_alpha", random_seq(11, 4000), ""});
  ref.add(Sequence{"contig_beta", random_seq(12, 2500), ""});
  const auto idx = MinimizerIndex::build(ref, SketchParams{13, 8});
  const std::string path = ::testing::TempDir() + "/mm_test_index.mmi";
  const u64 bytes = save_index(path, idx);
  EXPECT_GT(bytes, 0u);

  for (const bool mmap : {false, true}) {
    const auto loaded = mmap ? load_index_mmap(path) : load_index_stream(path);
    EXPECT_EQ(loaded.params().k, 13u);
    EXPECT_EQ(loaded.params().w, 8u);
    EXPECT_EQ(loaded.num_keys(), idx.num_keys());
    EXPECT_EQ(loaded.num_entries(), idx.num_entries());
    ASSERT_EQ(loaded.contigs().size(), 2u);
    EXPECT_EQ(loaded.contigs()[0].name, "contig_alpha");
    EXPECT_EQ(loaded.contigs()[1].length, 2500u);
    // Behavioural equivalence: lookups agree on every indexed key.
    for (const auto& b : idx.buckets()) {
      if (b.key == ~0ULL) continue;
      const auto a = idx.lookup(b.key);
      const auto c = loaded.lookup(b.key);
      ASSERT_EQ(a.size(), c.size());
      for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == c[i]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace manymap
