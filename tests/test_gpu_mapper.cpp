#include <gtest/gtest.h>

#include "core/mapper.hpp"
#include "gpu/gpu_mapper.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

class GpuMapperTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GenomeParams g;
    g.total_length = 120'000;
    g.num_contigs = 2;
    g.seed = 4242;
    ref_ = new Reference(generate_genome(g));
  }
  static void TearDownTestSuite() {
    delete ref_;
    ref_ = nullptr;
  }
  static Reference* ref_;
};

Reference* GpuMapperTest::ref_ = nullptr;

TEST_F(GpuMapperTest, ResultsBitIdenticalToCpuPath) {
  ReadSimParams rp;
  rp.num_reads = 5;
  rp.seed = 17;
  const auto sim = ReadSimulator(*ref_, rp).simulate();
  std::vector<Sequence> reads;
  for (const auto& r : sim) reads.push_back(r.read);

  const MapOptions opt = MapOptions::map_pb();
  const Mapper cpu(*ref_, opt);
  const auto gpu = gpu_map_reads(*ref_, opt, reads);

  ASSERT_EQ(gpu.mappings.size(), reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const auto cpu_maps = cpu.map(reads[i]);
    ASSERT_EQ(gpu.mappings[i].size(), cpu_maps.size()) << i;
    for (std::size_t m = 0; m < cpu_maps.size(); ++m) {
      EXPECT_EQ(gpu.mappings[i][m].score, cpu_maps[m].score);
      EXPECT_EQ(gpu.mappings[i][m].tstart, cpu_maps[m].tstart);
      EXPECT_EQ(gpu.mappings[i][m].tend, cpu_maps[m].tend);
      EXPECT_EQ(gpu.mappings[i][m].cigar.to_string(), cpu_maps[m].cigar.to_string());
    }
  }
}

TEST_F(GpuMapperTest, SegmentsSplitBetweenHostAndDevice) {
  ReadSimParams rp;
  rp.num_reads = 4;
  rp.seed = 18;
  const auto sim = ReadSimulator(*ref_, rp).simulate();
  std::vector<Sequence> reads;
  for (const auto& r : sim) reads.push_back(r.read);

  // Extensions (and any large gap fills) go to the device; the many tiny
  // inter-anchor fills stay on the host under a 10k-cell launch cutoff.
  gpu::GpuBatchConfig cfg;
  cfg.min_gpu_cells = 10'000;
  const auto gpu = gpu_map_reads(*ref_, MapOptions::map_pb(), reads, cfg);
  EXPECT_GT(gpu.gpu_kernels, 0u);
  EXPECT_GT(gpu.cpu_segments, gpu.gpu_kernels);
  EXPECT_GT(gpu.gpu_cells, 0u);
  EXPECT_GT(gpu.device_seconds, 0.0);
  EXPECT_GT(gpu.achieved_concurrency, 0u);
  EXPECT_LE(gpu.achieved_concurrency, 128u);
}

TEST_F(GpuMapperTest, CutoffRespected) {
  ReadSimParams rp;
  rp.num_reads = 2;
  rp.seed = 19;
  const auto sim = ReadSimulator(*ref_, rp).simulate();
  std::vector<Sequence> reads;
  for (const auto& r : sim) reads.push_back(r.read);

  gpu::GpuBatchConfig all_gpu;
  all_gpu.min_gpu_cells = 0;
  const auto a = gpu_map_reads(*ref_, MapOptions::map_pb(), reads, all_gpu);
  EXPECT_EQ(a.cpu_segments, 0u);

  gpu::GpuBatchConfig none_gpu;
  none_gpu.min_gpu_cells = ~0ULL;
  const auto b = gpu_map_reads(*ref_, MapOptions::map_pb(), reads, none_gpu);
  EXPECT_EQ(b.gpu_kernels, 0u);
  EXPECT_EQ(b.device_seconds, 0.0);
  // Both paths produce the same mappings.
  ASSERT_EQ(a.mappings.size(), b.mappings.size());
  for (std::size_t i = 0; i < a.mappings.size(); ++i) {
    ASSERT_EQ(a.mappings[i].size(), b.mappings[i].size());
    for (std::size_t m = 0; m < a.mappings[i].size(); ++m)
      EXPECT_EQ(a.mappings[i][m].cigar.to_string(), b.mappings[i][m].cigar.to_string());
  }
}

}  // namespace
}  // namespace manymap
