#include <gtest/gtest.h>

#include "align/reference_dp.hpp"
#include "base/random.hpp"
#include "simt/kernels.hpp"
#include "simt/memory_pool.hpp"

namespace manymap {
namespace {

using simt::Block;
using simt::Device;
using simt::DeviceSpec;
using simt::KernelCost;
using simt::MemoryPool;

std::vector<u8> random_seq(Rng& rng, i32 n) {
  std::vector<u8> s(static_cast<std::size_t>(n));
  for (auto& b : s) b = rng.base();
  return s;
}

DiffArgs make_args(const std::vector<u8>& t, const std::vector<u8>& q, AlignMode mode,
                   bool cigar) {
  DiffArgs a;
  a.target = t.data();
  a.tlen = static_cast<i32>(t.size());
  a.query = q.data();
  a.qlen = static_cast<i32>(q.size());
  a.mode = mode;
  a.with_cigar = cigar;
  return a;
}

TEST(Block, OpExecutesAllLanesAndCountsWarps) {
  Block b(64, DeviceSpec::v100());
  std::vector<int> hit(50, 0);
  b.op(50, [&](u32 lane) { hit[lane] = 1; });
  for (int h : hit) EXPECT_EQ(h, 1);
  EXPECT_EQ(b.cost().warp_instructions, 2u);  // ceil(50/32)
}

TEST(Block, DivergentExecutesBothPathsSerially) {
  Block b(32, DeviceSpec::v100());
  std::vector<int> path(32, 0);
  b.divergent(
      32, [](u32 lane) { return lane == 0; }, [&](u32 lane) { path[lane] = 1; },
      [&](u32 lane) { path[lane] = 2; });
  EXPECT_EQ(path[0], 1);
  for (u32 i = 1; i < 32; ++i) EXPECT_EQ(path[i], 2);
  EXPECT_EQ(b.cost().divergent_branches, 1u);
  // Both sides issue over the full warp set: 2 warp instructions.
  EXPECT_EQ(b.cost().warp_instructions, 2u);
}

TEST(Block, UniformBranchCheaperThanDivergent) {
  const DeviceSpec spec = DeviceSpec::v100();
  Block uniform(32, spec);
  uniform.op(32, [](u32) {});
  Block divergent(32, spec);
  divergent.divergent(
      32, [](u32 lane) { return lane < 16; }, [](u32) {}, [](u32) {});
  EXPECT_LT(uniform.cost().cycles, divergent.cost().cycles);
}

TEST(Block, SyncCost) {
  Block b(32, DeviceSpec::v100());
  b.sync();
  b.sync();
  EXPECT_EQ(b.cost().syncs, 2u);
  EXPECT_GT(b.cost().cycles, 0u);
}

TEST(GpuKernels, MatchReferenceBothLayouts) {
  Rng rng(77);
  const DeviceSpec spec = DeviceSpec::v100();
  for (const i32 len : {17, 64, 200, 333}) {
    const auto t = random_seq(rng, len);
    auto q = t;
    for (auto& c : q)
      if (rng.bernoulli(0.12)) c = rng.base();
    for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
      const auto args = make_args(t, q, mode, true);
      const auto ref = reference_align(args);
      for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
        const auto gpu = simt::gpu_align(args, layout, spec, 128);
        EXPECT_EQ(gpu.result.score, ref.score) << to_string(layout) << " len=" << len;
        EXPECT_EQ(gpu.result.cigar.to_string(), ref.cigar.to_string());
        EXPECT_EQ(gpu.result.t_end, ref.t_end);
      }
    }
  }
}

TEST(GpuKernels, ManymapFormEliminatesDivergence) {
  Rng rng(78);
  const auto t = random_seq(rng, 500);
  const auto q = random_seq(rng, 500);
  const auto args = make_args(t, q, AlignMode::kGlobal, false);
  const DeviceSpec spec = DeviceSpec::v100();
  const auto mm2 = simt::gpu_align(args, Layout::kMinimap2, spec, 512);
  const auto many = simt::gpu_align(args, Layout::kManymap, spec, 512);
  EXPECT_EQ(many.cost.divergent_branches, 0u);
  EXPECT_GT(mm2.cost.divergent_branches, 0u);
  EXPECT_LT(many.cost.syncs, mm2.cost.syncs);
  EXPECT_LT(many.cost.cycles, mm2.cost.cycles);
  EXPECT_EQ(many.result.score, mm2.result.score);
}

TEST(GpuKernels, SharedMemorySpillAtLongLengths) {
  Rng rng(79);
  const DeviceSpec spec = DeviceSpec::v100();
  const auto short_t = random_seq(rng, 1000), short_q = random_seq(rng, 1000);
  const auto long_t = random_seq(rng, 16'000), long_q = random_seq(rng, 16'000);
  const auto s = simt::gpu_align(make_args(short_t, short_q, AlignMode::kGlobal, false),
                                 Layout::kManymap, spec, 512);
  const auto l = simt::gpu_align(make_args(long_t, long_q, AlignMode::kGlobal, false),
                                 Layout::kManymap, spec, 512);
  EXPECT_TRUE(s.used_shared);
  EXPECT_FALSE(l.used_shared);
  // Spilled kernels pay more cycles per cell.
  const double s_cpc = static_cast<double>(s.cost.cycles) / static_cast<double>(s.result.cells);
  const double l_cpc = static_cast<double>(l.cost.cycles) / static_cast<double>(l.result.cells);
  EXPECT_GT(l_cpc, s_cpc);
}

TEST(GpuKernels, CostEstimatorMatchesInterpreterExactly) {
  Rng rng(81);
  const DeviceSpec spec = DeviceSpec::v100();
  for (const i32 tlen : {1, 13, 100, 257}) {
    for (const i32 qlen : {1, 50, 300}) {
      const auto t = random_seq(rng, tlen);
      const auto q = random_seq(rng, qlen);
      for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
        for (const bool cigar : {false, true}) {
          const auto args = make_args(t, q, AlignMode::kGlobal, cigar);
          const auto real = simt::gpu_align(args, layout, spec, 128).cost;
          const auto est = simt::gpu_align_cost(tlen, qlen, layout, spec, 128, cigar);
          EXPECT_EQ(real.cycles, est.cycles) << tlen << "x" << qlen;
          EXPECT_EQ(real.warp_instructions, est.warp_instructions);
          EXPECT_EQ(real.syncs, est.syncs);
          EXPECT_EQ(real.divergent_branches, est.divergent_branches);
          EXPECT_EQ(real.global_bytes, est.global_bytes);
          EXPECT_EQ(real.shared_bytes, est.shared_bytes);
        }
      }
    }
  }
}

TEST(Device, StreamScalingNearLinearThenCaps) {
  const Device device{DeviceSpec::v100()};
  std::vector<KernelCost> kernels(512);
  for (auto& k : kernels) {
    k.cycles = 1'000'000;
    k.global_bytes = 1 << 20;
  }
  const double t1 = device.run(kernels, 1).seconds;
  const double t64 = device.run(kernels, 64).seconds;
  const double t128 = device.run(kernels, 128).seconds;
  const double s64 = t1 / t64;
  const double s128 = t1 / t128;
  EXPECT_GT(s64, 50.0);   // near-linear to 64 streams
  EXPECT_LE(s64, 64.5);
  EXPECT_GT(s128, s64);   // still improves...
  EXPECT_LT(s128, 110.0); // ...but sub-linear: SM time-sharing above 80
}

TEST(Device, MemoryCapacityLimitsConcurrency) {
  const Device device{DeviceSpec::v100()};
  std::vector<KernelCost> kernels(64);
  for (auto& k : kernels) {
    k.cycles = 1'000'000;
    k.global_bytes = 2ULL << 30;  // 2 GB each: only 8 fit in 16 GB
  }
  const auto report = device.run(kernels, 128);
  EXPECT_EQ(report.achieved_concurrency, 8u);
}

TEST(Device, ResidentGridCap) {
  const Device device{DeviceSpec::v100()};
  std::vector<KernelCost> kernels(512);
  for (auto& k : kernels) {
    k.cycles = 100'000;
    k.global_bytes = 1024;
  }
  const auto report = device.run(kernels, 256);
  EXPECT_EQ(report.achieved_concurrency, 128u);  // max resident grids
}

TEST(MemoryPool, PartitionsAndAlignment) {
  MemoryPool pool(1024, 4);
  EXPECT_EQ(pool.per_stream_capacity(), 256u);
  const auto a = pool.allocate(0, 10);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 0u);
  const auto b = pool.allocate(0, 10);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 16u);  // 16-byte aligned bump
  const auto c = pool.allocate(1, 10);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, 256u);  // stream 1 partition base
}

TEST(MemoryPool, ExhaustionAndReset) {
  MemoryPool pool(1024, 4);
  EXPECT_TRUE(pool.allocate(2, 200).has_value());
  EXPECT_FALSE(pool.allocate(2, 100).has_value());  // 200->208 used, 100 > 48 left
  EXPECT_EQ(pool.failed_allocations(), 1u);
  pool.reset(2);
  EXPECT_EQ(pool.bytes_in_use(2), 0u);
  EXPECT_TRUE(pool.allocate(2, 100).has_value());
}

}  // namespace
}  // namespace manymap
