// Drive the SIMT device model: inspect the divergence/synchronization gap
// between the Fig. 4a (minimap2) and Fig. 4b (manymap) kernel forms, push
// a batch of sequence pairs through the offload subsystem across streams,
// and map reads end to end with the device running the DP score passes.
#include <cstdio>

#include "base/random.hpp"
#include "gpu/batch_mapper.hpp"
#include "gpu/gpu_mapper.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

using namespace manymap;
using simt::DeviceSpec;

int main() {
  Rng rng(301);
  const DeviceSpec spec = DeviceSpec::v100();
  std::printf("device: %u SMs, %u max resident grids, %.0f KiB shared/block\n", spec.sm_count,
              spec.max_resident_grids, spec.shared_mem_per_block / 1024.0);

  // One pair, both kernel forms: the cost gap is the paper's Fig. 4 story.
  std::vector<u8> t(1500), q(1500);
  for (auto& b : t) b = rng.base();
  q = t;
  for (auto& b : q)
    if (rng.bernoulli(0.12)) b = rng.base();
  DiffArgs a;
  a.target = t.data();
  a.tlen = 1500;
  a.query = q.data();
  a.qlen = 1500;
  for (const Layout layout : {Layout::kMinimap2, Layout::kManymap}) {
    const auto r = simt::gpu_align(a, layout, spec, 512);
    std::printf("%-9s kernel: score %lld, %llu cycles, %llu syncs, %llu divergent branches\n",
                to_string(layout), static_cast<long long>(r.result.score),
                static_cast<unsigned long long>(r.cost.cycles),
                static_cast<unsigned long long>(r.cost.syncs),
                static_cast<unsigned long long>(r.cost.divergent_branches));
  }

  // A small batch across streams through the offload subsystem (staging,
  // device score pass), with every score checked against the host kernel.
  std::vector<std::vector<u8>> targets(32), queries(32);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i].resize(800);
    for (auto& b : targets[i]) b = rng.base();
    queries[i] = targets[i];
    for (auto& b : queries[i])
      if (rng.bernoulli(0.1)) b = rng.base();
  }
  gpu::GpuBatchConfig cfg;
  cfg.num_streams = 16;
  gpu::GpuBatchMapper batch(cfg);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    DiffArgs pair;
    pair.target = targets[i].data();
    pair.tlen = static_cast<i32>(targets[i].size());
    pair.query = queries[i].data();
    pair.qlen = static_cast<i32>(queries[i].size());
    const auto seg = batch.align_segment(pair, static_cast<u32>(i % cfg.num_streams));
    if (seg.result.score != batch.config().host_kernel(pair).score)
      std::printf("device score differs from the host kernel!\n");
  }
  const auto run = batch.flush();
  const auto stats = batch.stats();
  std::printf("batch: %llu kernels on device, %llu host segments, concurrency %u, "
              "%.2f simulated GCUPS\n",
              static_cast<unsigned long long>(stats.device_kernels),
              static_cast<unsigned long long>(stats.host_segments), run.achieved_concurrency,
              run.seconds > 0 ? static_cast<double>(stats.device_cells) / run.seconds / 1e9
                              : 0.0);

  // End-to-end offloaded mapping (§4.2): host seeds/chains/stitches, the
  // device runs the DP score passes and the host completes the paths;
  // results match the CPU mapper exactly.
  GenomeParams gp;
  gp.total_length = 100'000;
  gp.num_contigs = 1;
  gp.seed = 404;
  const Reference ref = generate_genome(gp);
  ReadSimParams rp;
  rp.num_reads = 4;
  rp.seed = 405;
  const auto sim = ReadSimulator(ref, rp).simulate();
  std::vector<Sequence> reads;
  for (const auto& r : sim) reads.push_back(r.read);
  const auto mapped = gpu_map_reads(ref, MapOptions::map_pb(), reads);
  u64 ok = 0;
  for (const auto& ms : mapped.mappings) ok += !ms.empty();
  std::printf("offloaded mapping: %llu/%zu reads mapped; %llu GPU kernels + %llu host\n"
              "segments; simulated device score-pass time %.3f ms at concurrency %u\n",
              static_cast<unsigned long long>(ok), reads.size(),
              static_cast<unsigned long long>(mapped.gpu_kernels),
              static_cast<unsigned long long>(mapped.cpu_segments),
              mapped.device_seconds * 1e3, mapped.achieved_concurrency);
  return 0;
}
