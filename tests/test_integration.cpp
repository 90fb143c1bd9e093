// Cross-module integration tests: full flows spanning simulator -> index
// -> chain -> mapper -> output, persisted-index mapping equivalence, and
// machine-model consistency properties.
#include <gtest/gtest.h>

#include <cstdio>

#include "baselines/baseline.hpp"
#include "core/accuracy.hpp"
#include "core/aligner.hpp"
#include "core/paf.hpp"
#include "index/index_io.hpp"
#include "knl/knl_run.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

Reference small_ref(u64 seed = 777) {
  GenomeParams g;
  g.total_length = 150'000;
  g.num_contigs = 2;
  g.seed = seed;
  return generate_genome(g);
}

TEST(Integration, MapperFromPersistedIndexMatchesInMemory) {
  const Reference ref = small_ref();
  const MapOptions opt = MapOptions::map_pb();
  const Mapper direct(ref, opt);

  const std::string path = ::testing::TempDir() + "/mm_int_index.mmi";
  save_index(path, MinimizerIndex::build(ref, opt.sketch));
  for (const bool mmap : {false, true}) {
    const Mapper loaded(ref, mmap ? load_index_mmap(path) : load_index_stream(path), opt);
    ReadSimParams rp;
    rp.num_reads = 8;
    rp.seed = 5;
    for (const auto& r : ReadSimulator(ref, rp).simulate()) {
      const auto a = direct.map(r.read);
      const auto b = loaded.map(r.read);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tstart, b[i].tstart);
        EXPECT_EQ(a[i].score, b[i].score);
        EXPECT_EQ(a[i].cigar.to_string(), b[i].cigar.to_string());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Integration, AnchorsFallOnTrueLocus) {
  // Index -> sketch -> anchors: anchors of a perfect read cluster on the
  // read's true reference interval (repeat-free genome, so off-locus hits
  // can only come from chance k-mer collisions).
  GenomeParams gp;
  gp.total_length = 150'000;
  gp.num_contigs = 2;
  gp.repeat_families = 0;
  gp.seed = 778;
  const Reference ref = generate_genome(gp);
  const SketchParams sp{15, 10};
  const auto index = MinimizerIndex::build(ref, sp);
  const u64 start = 40'000, len = 2'000;
  Sequence read;
  read.codes = ref.extract(0, start, len);
  const auto mins = sketch(read.codes, 0, sp);
  const auto anchors = collect_anchors(index, mins, static_cast<u32>(len), 50);
  ASSERT_GT(anchors.size(), 50u);
  std::size_t on_locus = 0;
  for (const auto& a : anchors)
    if (a.rid == 0 && !a.rev && a.tpos >= start && a.tpos < start + len) ++on_locus;
  EXPECT_GT(static_cast<double>(on_locus) / static_cast<double>(anchors.size()), 0.9);
}

TEST(Integration, PafLinesParseBackConsistently) {
  const Reference ref = small_ref();
  const Aligner aligner(ref, MapOptions::map_pb());
  ReadSimParams rp;
  rp.num_reads = 10;
  rp.seed = 6;
  for (const auto& r : ReadSimulator(ref, rp).simulate()) {
    for (const auto& m : aligner.map_read(r.read)) {
      const auto rec = parse_paf_line(to_paf(m, true));
      EXPECT_EQ(rec.qname, m.qname);
      EXPECT_EQ(rec.qlen, m.qlen);
      EXPECT_EQ(rec.qstart, m.qstart);
      EXPECT_EQ(rec.qend, m.qend);
      EXPECT_EQ(rec.rev, m.rev);
      EXPECT_EQ(rec.tstart, m.tstart);
      EXPECT_EQ(rec.tend, m.tend);
      EXPECT_EQ(rec.mapq, m.mapq);
      // PAF invariants
      EXPECT_LE(rec.qend, rec.qlen);
      EXPECT_LE(rec.tend, m.rlen);
      EXPECT_LE(rec.matches, rec.align_length);
    }
  }
}

TEST(Integration, KnlModelMonotonicities) {
  const knl::KnlSpec spec = knl::KnlSpec::phi7210();
  const knl::KnlCalibration cal;
  // Capacity grows with threads for every strategy.
  for (const AffinityStrategy s : {AffinityStrategy::kCompact, AffinityStrategy::kScatter,
                                   AffinityStrategy::kOptimized}) {
    double prev = 0.0;
    for (const u32 t : {1u, 4u, 16u, 64u, 256u}) {
      const double c = knl::parallel_capacity(spec, cal, s, t);
      EXPECT_GE(c, prev) << to_string(s) << " " << t;
      prev = c;
    }
  }
  // MCDRAM is never slower than DDR.
  for (const u64 len : {500u, 2000u, 8000u, 32000u}) {
    for (const bool path : {false, true}) {
      knl::KernelWorkload w;
      w.sequence_length = len;
      w.with_path = path;
      w.threads = 256;
      EXPECT_GE(simulated_gcups(spec, cal, w, knl::MemoryMode::kMcdram),
                simulated_gcups(spec, cal, w, knl::MemoryMode::kDdr) - 1e-9);
    }
  }
}

TEST(Integration, KnlRunEveryOptimizationHelps) {
  // Each §4.4 technique, applied on top of the port, must not slow the
  // modeled run down.
  knl::KnlWorkload w;
  w.load_index_cpu_s = 4.7;
  w.load_query_cpu_s = 0.4;
  w.seed_chain_cpu_s = 35.8;
  w.align_cpu_s = 79.2;
  w.output_cpu_s = 0.9;
  knl::KnlRunConfig cfg;
  cfg.threads = 256;
  cfg.vectorized_align = false;
  cfg.use_mmap_io = false;
  cfg.manymap_pipeline = false;
  cfg.affinity = AffinityStrategy::kScatter;
  cfg.memory_mode = knl::MemoryMode::kDdr;
  const knl::KnlSpec spec = knl::KnlSpec::phi7210();
  const knl::KnlCalibration cal;
  double wall = knl::simulate_knl_run(spec, cal, w, cfg).wall_s;
  auto step = [&](auto mutate) {
    mutate();
    const double next = knl::simulate_knl_run(spec, cal, w, cfg).wall_s;
    EXPECT_LE(next, wall + 1e-9);
    wall = next;
  };
  step([&] { cfg.vectorized_align = true; });
  step([&] { cfg.use_mmap_io = true; });
  step([&] { cfg.affinity = AffinityStrategy::kOptimized; });
  step([&] { cfg.memory_mode = knl::MemoryMode::kMcdram; });
  step([&] { cfg.manymap_pipeline = true; });
}

TEST(Integration, BaselinesAgreeWithManymapOnUnambiguousReads) {
  // On a repeat-free genome every aligner should find the same locus.
  GenomeParams g;
  g.total_length = 100'000;
  g.num_contigs = 1;
  g.repeat_families = 0;
  g.seed = 31;
  const Reference ref = generate_genome(g);
  const Mapper manymap_mapper(ref, MapOptions::map_pb());
  Sequence read;
  read.name = "probe";
  read.codes = ref.extract(0, 55'000, 2'500);
  const auto expected = manymap_mapper.map(read);
  ASSERT_FALSE(expected.empty());
  for (const BaselineKind kind : {BaselineKind::kBwaMem, BaselineKind::kBlasr,
                                  BaselineKind::kNgmlr, BaselineKind::kKart,
                                  BaselineKind::kMinialign}) {
    const auto aligner = make_baseline(kind, ref);
    const auto maps = aligner->map(read);
    ASSERT_FALSE(maps.empty()) << aligner->name();
    EXPECT_EQ(maps[0].rid, expected[0].rid) << aligner->name();
    EXPECT_LT(std::max(maps[0].tstart, expected[0].tstart) -
                  std::min(maps[0].tstart, expected[0].tstart),
              200u)
        << aligner->name();
  }
}

}  // namespace
}  // namespace manymap
