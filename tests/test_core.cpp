#include <gtest/gtest.h>

#include <cstdio>

#include "core/accuracy.hpp"
#include "core/aligner.hpp"
#include "core/breakdown.hpp"
#include "core/paf.hpp"
#include "index/index_io.hpp"
#include "sequence/fasta.hpp"
#include "simulate/dataset.hpp"
#include "simulate/genome.hpp"

namespace manymap {
namespace {

class MapperTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GenomeParams g;
    g.total_length = 200'000;
    g.num_contigs = 2;
    g.seed = 1234;
    ref_ = new Reference(generate_genome(g));
    MapOptions opt = MapOptions::map_pb();
    mapper_ = new Mapper(*ref_, opt);
  }
  static void TearDownTestSuite() {
    delete mapper_;
    delete ref_;
    mapper_ = nullptr;
    ref_ = nullptr;
  }
  static Reference* ref_;
  static Mapper* mapper_;
};

Reference* MapperTest::ref_ = nullptr;
Mapper* MapperTest::mapper_ = nullptr;

Sequence perfect_read(const Reference& ref, u32 cid, u64 start, u64 len, bool forward) {
  Sequence s;
  s.name = "perfect";
  s.codes = ref.extract(cid, start, len);
  if (!forward) s.codes = reverse_complement(s.codes);
  return s;
}

TEST_F(MapperTest, PerfectForwardReadMapsExactly) {
  const auto read = perfect_read(*ref_, 0, 30'000, 4000, true);
  const auto maps = mapper_->map(read);
  ASSERT_FALSE(maps.empty());
  const auto& m = maps[0];
  EXPECT_EQ(m.rid, 0u);
  EXPECT_FALSE(m.rev);
  EXPECT_TRUE(m.primary);
  EXPECT_NEAR(static_cast<double>(m.tstart), 30'000.0, 50.0);
  EXPECT_NEAR(static_cast<double>(m.tend), 34'000.0, 50.0);
  EXPECT_GT(m.identity(), 0.99);
  EXPECT_EQ(m.cigar.query_span(), static_cast<u64>(m.qend - m.qstart));
  EXPECT_EQ(m.cigar.target_span(), m.tend - m.tstart);
}

TEST_F(MapperTest, PerfectReverseReadMapsExactly) {
  const auto read = perfect_read(*ref_, 1, 50'000, 3000, false);
  const auto maps = mapper_->map(read);
  ASSERT_FALSE(maps.empty());
  const auto& m = maps[0];
  EXPECT_EQ(m.rid, 1u);
  EXPECT_TRUE(m.rev);
  EXPECT_NEAR(static_cast<double>(m.tstart), 50'000.0, 50.0);
  EXPECT_NEAR(static_cast<double>(m.tend), 53'000.0, 50.0);
  EXPECT_GT(m.identity(), 0.99);
}

TEST_F(MapperTest, NoisyReadsMapToTruth) {
  ReadSimParams p;
  p.num_reads = 20;
  p.seed = 77;
  const auto reads = ReadSimulator(*ref_, p).simulate();
  u32 correct = 0, aligned = 0;
  for (const auto& r : reads) {
    const auto maps = mapper_->map(r.read);
    if (maps.empty()) continue;
    ++aligned;
    if (mapping_is_correct(maps[0], r.truth)) ++correct;
  }
  EXPECT_GE(aligned, 18u);
  EXPECT_GE(correct, aligned - 1);  // <=1 wrong on 20 reads
}

TEST_F(MapperTest, ScoreMatchesCigarRescoring) {
  const auto read = perfect_read(*ref_, 0, 10'000, 2000, true);
  const auto maps = mapper_->map(read);
  ASSERT_FALSE(maps.empty());
  const auto& m = maps[0];
  // score is defined as the rescored CIGAR; matches+identity consistent
  EXPECT_GT(m.score, 0);
  EXPECT_LE(m.matches, m.align_length);
}

TEST_F(MapperTest, TooShortReadYieldsNothing) {
  Sequence tiny;
  tiny.name = "tiny";
  tiny.codes = {0, 1, 2, 3};
  EXPECT_TRUE(mapper_->map(tiny).empty());
}

TEST_F(MapperTest, RandomReadDoesNotMap) {
  Rng rng(4242);
  Sequence junk;
  junk.name = "junk";
  junk.codes.resize(2000);
  for (auto& b : junk.codes) b = rng.base();
  const auto maps = mapper_->map(junk);
  // A random 2 kbp sequence should not produce a confident primary mapping.
  if (!maps.empty()) {
    EXPECT_LT(maps[0].chain_score, 100);
  }
}

TEST_F(MapperTest, TimingsAccumulate) {
  MapTimings t;
  const auto read = perfect_read(*ref_, 0, 60'000, 3000, true);
  (void)mapper_->map(read, &t);
  EXPECT_GT(t.seed_chain_seconds, 0.0);
  EXPECT_GT(t.align_seconds, 0.0);
  EXPECT_GT(t.dp_cells, 0u);
}

TEST_F(MapperTest, AllKernelConfigsProduceSamePrimaryLocus) {
  const auto read = perfect_read(*ref_, 0, 80'000, 2500, false);
  std::vector<Mapping> first;
  for (Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    for (Isa isa : available_isas()) {
      MapOptions opt = MapOptions::map_pb();
      opt.layout = layout;
      opt.isa = isa;
      const Mapper mapper(*ref_, opt);
      const auto maps = mapper.map(read);
      ASSERT_FALSE(maps.empty()) << to_string(layout) << "/" << to_string(isa);
      if (first.empty()) {
        first = maps;
        continue;
      }
      EXPECT_EQ(maps[0].tstart, first[0].tstart) << to_string(layout) << "/" << to_string(isa);
      EXPECT_EQ(maps[0].tend, first[0].tend);
      EXPECT_EQ(maps[0].score, first[0].score);
      EXPECT_EQ(maps[0].cigar.to_string(), first[0].cigar.to_string());
    }
  }
}

TEST(Paf, FormatAndParseRoundTrip) {
  Mapping m;
  m.qname = "read1";
  m.qlen = 5000;
  m.qstart = 10;
  m.qend = 4990;
  m.rev = true;
  m.rname = "chr1";
  m.rlen = 100'000;
  m.tstart = 2000;
  m.tend = 7000;
  m.matches = 4500;
  m.align_length = 5100;
  m.mapq = 60;
  m.chain_score = 300;
  m.score = 8000;
  m.cigar = Cigar::from_string("4980M");
  const std::string line = to_paf(m, true);
  EXPECT_NE(line.find("cg:Z:4980M"), std::string::npos);
  EXPECT_NE(line.find("tp:A:P"), std::string::npos);
  const auto rec = parse_paf_line(line);
  EXPECT_EQ(rec.qname, "read1");
  EXPECT_EQ(rec.qlen, 5000u);
  EXPECT_TRUE(rec.rev);
  EXPECT_EQ(rec.tstart, 2000u);
  EXPECT_EQ(rec.matches, 4500u);
  EXPECT_EQ(rec.mapq, 60u);
}

TEST(Accuracy, CorrectnessCriteria) {
  Mapping m;
  m.rid = 0;
  m.rev = false;
  m.tstart = 1000;
  m.tend = 2000;
  TruthRecord t{0, 1000, 2000, true};
  EXPECT_TRUE(mapping_is_correct(m, t));
  t.contig = 1;
  EXPECT_FALSE(mapping_is_correct(m, t));  // wrong contig
  t = TruthRecord{0, 1000, 2000, false};
  EXPECT_FALSE(mapping_is_correct(m, t));  // wrong strand
  t = TruthRecord{0, 5000, 6000, true};
  EXPECT_FALSE(mapping_is_correct(m, t));  // no overlap
  t = TruthRecord{0, 1950, 3000, true};
  EXPECT_FALSE(mapping_is_correct(m, t, 0.1));  // 50/1050 < 10%
  t = TruthRecord{0, 1500, 2500, true};
  EXPECT_TRUE(mapping_is_correct(m, t, 0.1));  // 500/1000 overlap
}

TEST(Accuracy, ReportAggregation) {
  std::vector<SimulatedRead> reads(3);
  reads[0].truth = {0, 100, 200, true};
  reads[1].truth = {0, 300, 400, true};
  reads[2].truth = {0, 500, 600, true};
  Mapping good;
  good.rid = 0;
  good.rev = false;
  good.tstart = 100;
  good.tend = 200;
  good.primary = true;
  Mapping wrong = good;
  wrong.tstart = 10'000;
  wrong.tend = 10'100;
  const std::vector<std::vector<Mapping>> mappings{{good}, {wrong}, {}};
  const auto rep = score_accuracy(mappings, reads);
  EXPECT_EQ(rep.total_reads, 3u);
  EXPECT_EQ(rep.aligned_reads, 2u);
  EXPECT_EQ(rep.correct_reads, 1u);
  EXPECT_DOUBLE_EQ(rep.error_rate(), 0.5);
  EXPECT_NEAR(rep.aligned_fraction(), 2.0 / 3.0, 1e-9);
}

TEST(Aligner, PipelinesProduceIdenticalPafSets) {
  GenomeParams g;
  g.total_length = 80'000;
  g.num_contigs = 1;
  g.seed = 99;
  const Reference ref = generate_genome(g);
  const Aligner aligner(ref, MapOptions::map_pb());

  ReadSimParams p;
  p.num_reads = 12;
  p.seed = 5;
  const auto sim = ReadSimulator(ref, p).simulate();
  std::vector<Sequence> reads;
  for (const auto& r : sim) reads.push_back(r.read);

  const auto a = aligner.map_reads(reads, PipelineKind::kMinimap2, 2);
  const auto b = aligner.map_reads(reads, PipelineKind::kManymap, 2);
  EXPECT_EQ(a.stats.reads, 12u);
  EXPECT_EQ(b.stats.reads, 12u);
  // manymap sorts within batches, so compare as line multisets.
  auto lines = [](const std::string& s) {
    std::multiset<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
      const auto nl = s.find('\n', pos);
      out.insert(s.substr(pos, nl - pos));
      pos = nl == std::string::npos ? s.size() : nl + 1;
    }
    return out;
  };
  EXPECT_EQ(lines(a.paf), lines(b.paf));
  EXPECT_FALSE(a.paf.empty());
}

TEST(Breakdown, InstrumentedRunCoversAllStages) {
  GenomeParams g;
  g.total_length = 60'000;
  g.num_contigs = 1;
  g.seed = 321;
  const Reference ref = generate_genome(g);
  const auto index = MinimizerIndex::build(ref, SketchParams{15, 10});
  const std::string index_path = ::testing::TempDir() + "/mm_bd_index.mmi";
  save_index(index_path, index);

  ReadSimParams p;
  p.num_reads = 6;
  p.seed = 8;
  const auto sim = ReadSimulator(ref, p).simulate();
  const std::string query_path = ::testing::TempDir() + "/mm_bd_reads.fq";
  write_dataset(query_path, sim);

  for (const bool mmap : {false, true}) {
    BreakdownConfig cfg;
    cfg.index_path = index_path;
    cfg.query_path = query_path;
    cfg.use_mmap = mmap;
    cfg.options = MapOptions::map_pb();
    std::string paf;
    const auto bd = run_instrumented(ref, cfg, &paf);
    EXPECT_GT(bd.load_index_s, 0.0);
    EXPECT_GT(bd.seed_chain_s, 0.0);
    EXPECT_GT(bd.align_s, 0.0);
    EXPECT_GT(bd.total(), 0.0);
    EXPECT_FALSE(paf.empty());
    EXPECT_FALSE(bd.to_table("test").empty());
  }
  std::remove(index_path.c_str());
  std::remove(query_path.c_str());
}

TEST(MapTimings, AccumulatesAutoBandCounters) {
  MapTimings a, b;
  a.auto_band_kernels = 3;
  a.auto_band_full = 1;
  a.band_fallbacks = 2;
  b.auto_band_kernels = 5;
  b.auto_band_full = 4;
  b.band_fallbacks = 1;
  a += b;
  EXPECT_EQ(a.auto_band_kernels, 8u);
  EXPECT_EQ(a.auto_band_full, 5u);
  EXPECT_EQ(a.band_fallbacks, 3u);
}

TEST(Options, CliNameHelpers) {
  EXPECT_FALSE(preset_by_name("map-hifi").has_value());
  const auto pb = preset_by_name("map-pb");
  const auto ont = preset_by_name("map-ont");
  ASSERT_TRUE(pb.has_value());
  ASSERT_TRUE(ont.has_value());
  EXPECT_NE(pb->scores.mismatch, ont->scores.mismatch);

  MapOptions opt = *pb;
  EXPECT_TRUE(apply_layout_name(opt, "minimap2"));
  EXPECT_EQ(opt.layout, Layout::kMinimap2);
  EXPECT_FALSE(apply_layout_name(opt, "colmap"));
  EXPECT_EQ(opt.layout, Layout::kMinimap2);  // unchanged on bad name

  EXPECT_TRUE(apply_isa_name(opt, "scalar"));
  EXPECT_EQ(opt.isa, Isa::kScalar);
  EXPECT_FALSE(apply_isa_name(opt, "neon"));
  EXPECT_EQ(opt.isa, Isa::kScalar);
}

}  // namespace
}  // namespace manymap
