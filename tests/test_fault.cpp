// Tests for the deterministic fault-injection registry (src/fault/) and
// the graceful-degradation pieces that consume it: the kernel fallback
// ladder and the instrumented I/O / index / SIMT sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "align/fallback.hpp"
#include "align/reference_dp.hpp"
#include "fault/fault.hpp"
#include "index/index_io.hpp"
#include "io/mapped_file.hpp"
#include "sequence/dna.hpp"
#include "simt/memory_pool.hpp"
#include "simulate/genome.hpp"

namespace manymap {
namespace {

using fault::FaultInjected;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::ScopedPlan;

/// Record which of `n` visits to `site` fire under a fresh plan.
std::vector<bool> firing_pattern(u64 seed, const FaultSpec& spec, const char* site, int n) {
  FaultPlan plan(seed);
  plan.arm(spec);
  std::vector<bool> fired;
  for (int i = 0; i < n; ++i) fired.push_back(plan.on_visit(site).has_value());
  return fired;
}

TEST(FaultPlan, SameSeedSameFiringPattern) {
  FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.one_in = 4;
  const auto a = firing_pattern(7, spec, "service.worker.compute", 200);
  const auto b = firing_pattern(7, spec, "service.worker.compute", 200);
  EXPECT_EQ(a, b);
  // ~1/4 rate: loose bounds, the stream is pseudorandom, not periodic.
  const auto fires = std::count(a.begin(), a.end(), true);
  EXPECT_GT(fires, 20);
  EXPECT_LT(fires, 100);
  // A different seed decorrelates the stream.
  EXPECT_NE(a, firing_pattern(8, spec, "service.worker.compute", 200));
}

TEST(FaultPlan, SiteFilteringExactAndWildcard) {
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "service.*";
  spec.one_in = 1;
  plan.arm(spec);
  EXPECT_TRUE(plan.on_visit("service.worker.compute").has_value());
  EXPECT_TRUE(plan.on_visit("service.queue.delay").has_value());
  EXPECT_FALSE(plan.on_visit("align.dp.alloc").has_value());
  EXPECT_FALSE(plan.on_visit("io.file.read").has_value());

  FaultPlan exact(1);
  FaultSpec espec;
  espec.site = "io.file.read";
  espec.one_in = 1;
  exact.arm(espec);
  EXPECT_TRUE(exact.on_visit("io.file.read").has_value());
  EXPECT_FALSE(exact.on_visit("io.file.write").has_value());
}

TEST(FaultPlan, MaxFiresBoundsTotalFires) {
  FaultPlan plan(3);
  FaultSpec spec;
  spec.site = "x";
  spec.one_in = 1;
  spec.max_fires = 3;
  plan.arm(spec);
  int fires = 0;
  for (int i = 0; i < 50; ++i) fires += plan.on_visit("x").has_value() ? 1 : 0;
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(plan.fires(), 3u);
  EXPECT_EQ(plan.visits(), 50u);
}

TEST(FaultPlan, KnownSitesSortedAndUnique) {
  const auto& sites = fault::known_sites();
  EXPECT_FALSE(sites.empty());
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  EXPECT_EQ(std::adjacent_find(sites.begin(), sites.end()), sites.end());
}

#if MANYMAP_FAULT_INJECTION

TEST(FaultInject, NoPlanIsANoOp) {
  ASSERT_EQ(fault::current_plan(), nullptr);
  EXPECT_NO_THROW(MM_INJECT("service.worker.compute"));
  EXPECT_FALSE(MM_INJECT_FAIL("simt.pool.alloc"));
  EXPECT_NO_THROW(MM_INJECT_DELAY("service.queue.delay"));
}

TEST(FaultInject, ErrorKindThrowsFaultInjectedWithSite) {
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.one_in = 1;
  plan.arm(spec);
  ScopedPlan guard(&plan);
  try {
    MM_INJECT("service.worker.compute");
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.site(), "service.worker.compute");
    EXPECT_NE(std::string(e.what()).find("service.worker.compute"), std::string::npos);
  }
}

TEST(FaultInject, SlowKindSleepsThenContinues) {
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "service.queue.delay";
  spec.kind = FaultKind::kSlow;
  spec.one_in = 1;
  spec.delay = std::chrono::milliseconds(30);
  plan.arm(spec);
  ScopedPlan guard(&plan);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(MM_INJECT_DELAY("service.queue.delay"));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(FaultInject, CancelUnblocksStalls) {
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.kind = FaultKind::kStall;
  spec.one_in = 1;
  spec.delay = std::chrono::seconds(60);  // would hang the test if uncancellable
  plan.arm(spec);
  ScopedPlan guard(&plan);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    plan.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  MM_INJECT("service.worker.compute");
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
  canceller.join();
}

TEST(FaultInject, IndexLoadSitesSurfaceAsFaultInjected) {
  GenomeParams gp;
  gp.total_length = 5'000;
  gp.seed = 11;
  const Reference ref = generate_genome(gp);
  const MinimizerIndex index = MinimizerIndex::build(ref, SketchParams{});
  const std::string path = ::testing::TempDir() + "fault_index.mmi";
  ASSERT_GT(save_index(path, index), 0u);

  for (const char* site : {"index.load.stream", "index.load.mmap"}) {
    FaultPlan plan(1);
    FaultSpec spec;
    spec.site = site;
    spec.one_in = 1;
    plan.arm(spec);
    ScopedPlan guard(&plan);
    if (std::string(site) == "index.load.stream") {
      EXPECT_THROW(load_index_stream(path), FaultInjected) << site;
    } else {
      EXPECT_THROW(load_index_mmap(path), FaultInjected) << site;
    }
  }
  // With no plan the file still loads — injection left no residue.
  const MinimizerIndex reloaded = load_index_stream(path);
  EXPECT_EQ(reloaded.num_entries(), index.num_entries());
  std::remove(path.c_str());
}

TEST(FaultInject, IndexSaveSiteSurfacesAsFaultInjected) {
  GenomeParams gp;
  gp.total_length = 5'000;
  gp.seed = 11;
  const Reference ref = generate_genome(gp);
  const MinimizerIndex index = MinimizerIndex::build(ref, SketchParams{});
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "index.save";
  spec.one_in = 1;
  plan.arm(spec);
  ScopedPlan guard(&plan);
  EXPECT_THROW(save_index(::testing::TempDir() + "fault_nosave.mmi", index), FaultInjected);
}

TEST(FaultInject, MappedFileOpenFailsNatively) {
  const std::string path = ::testing::TempDir() + "fault_map.bin";
  write_file(path, "0123456789");
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "io.mmap.open";
  spec.one_in = 1;
  plan.arm(spec);
  {
    ScopedPlan guard(&plan);
    MappedFile f;
    EXPECT_FALSE(f.open(path));  // native failure path, no exception
    EXPECT_FALSE(f.is_open());
  }
  MappedFile f;
  EXPECT_TRUE(f.open(path));
  EXPECT_EQ(f.size(), 10u);
  std::remove(path.c_str());
}

TEST(FaultInject, SimtPoolAllocFailureCountsAndReturnsNullopt) {
  simt::MemoryPool pool(1 << 20, 4);
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "simt.pool.alloc";
  spec.one_in = 1;
  spec.max_fires = 1;
  plan.arm(spec);
  ScopedPlan guard(&plan);
  EXPECT_FALSE(pool.allocate(0, 64).has_value());  // injected
  EXPECT_EQ(pool.failed_allocations(), 1u);
  EXPECT_TRUE(pool.allocate(0, 64).has_value());  // max_fires exhausted
}

TEST(Fallback, DpAllocFaultClimbsToBandedReference) {
  const std::vector<u8> t = encode_dna("ACGTTGCAACGTTGCAACGTACGT");
  const std::vector<u8> q = encode_dna("ACGTTGCACGTTGCAACGTACGGT");
  DiffArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.with_cigar = true;

  for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
    a.mode = mode;
    const AlignResult want = reference_align(a);

    FaultPlan plan(1);
    FaultSpec spec;
    spec.site = "align.dp.alloc";
    spec.one_in = 1;  // every diff-kernel attempt fails; rung 2 has no DP-alloc site
    plan.arm(spec);
    ScopedPlan guard(&plan);

    FallbackOutcome fo;
    const AlignResult got = align_with_fallback(
        a, get_diff_kernel(Layout::kManymap, Isa::kScalar), Layout::kManymap, &fo);
    EXPECT_EQ(fo.rung, 2u);
    EXPECT_GT(fo.failed_attempts, 0u);
    EXPECT_EQ(got.score, want.score);
    EXPECT_EQ(got.t_end, want.t_end);
    EXPECT_EQ(got.q_end, want.q_end);
    EXPECT_EQ(got.cigar.to_string(), want.cigar.to_string());
  }
}

TEST(Fallback, BoundedFaultAnswersOnPrimaryRetry) {
  const std::vector<u8> t = encode_dna("ACGTACGTACGT");
  const std::vector<u8> q = encode_dna("ACGTACGTACGT");
  DiffArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.mode = AlignMode::kGlobal;

  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "align.dp.alloc";
  spec.one_in = 1;
  spec.max_fires = 1;  // first attempt fails, the retry answers on rung 0
  plan.arm(spec);
  ScopedPlan guard(&plan);

  FallbackOutcome fo;
  const AlignResult got = align_with_fallback(
      a, get_diff_kernel(Layout::kManymap, Isa::kScalar), Layout::kManymap, &fo);
  EXPECT_EQ(fo.rung, 0u);
  EXPECT_EQ(fo.failed_attempts, 1u);
  EXPECT_EQ(got.score, reference_align(a).score);
}

#else  // !MANYMAP_FAULT_INJECTION

TEST(FaultInject, MacrosCompileToNothing) {
  FaultPlan plan(1);
  FaultSpec spec;
  spec.site = "service.worker.compute";
  spec.one_in = 1;
  plan.arm(spec);
  ScopedPlan guard(&plan);
  // Even with a maximally aggressive plan installed, disabled macros never
  // fire: they are ((void)0) / (false).
  EXPECT_NO_THROW(MM_INJECT("service.worker.compute"));
  EXPECT_FALSE(MM_INJECT_FAIL("service.worker.compute"));
  EXPECT_EQ(plan.visits(), 0u);
}

#endif  // MANYMAP_FAULT_INJECTION

}  // namespace
}  // namespace manymap
