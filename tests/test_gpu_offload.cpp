// Device offload subsystem tests (ctest label: gpu-offload):
//   - placement-policy property tests pinning the documented decision
//     boundaries (min_reads / min_mean_read_len / max_length_cv) and their
//     ordering;
//   - StagingArea stage/release/exhaustion and per-stream isolation;
//   - OccupancyTracker accounting through the discrete-event device model;
//   - GpuBatchMapper bit-identity with the host kernel across score/path
//     modes, the min-cells cutoff, and every fallback rung (staging
//     exhaustion, injected launch failure) and with threads sharing a
//     stream;
//   - AlignmentService end-to-end: gpu-enabled responses byte-identical to
//     the serial mapper, and a mid-batch launch-failure storm that must
//     re-queue remainders exactly once with no drops or duplicates.
// Workloads stay small: the SIMT interpreter is cycle-accurate and runs
// roughly 25x slower than the native CPU kernels in wall time.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "align/kernel_api.hpp"
#include "core/paf.hpp"
#include "fault/fault.hpp"
#include "gpu/batch_mapper.hpp"
#include "gpu/occupancy.hpp"
#include "gpu/placement.hpp"
#include "gpu/staging.hpp"
#include "service/service.hpp"
#include "simt/kernels.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace gpu {
namespace {

// ---------------------------------------------------------------------------
// Placement policy: the decision boundaries are part of the public contract
// (DESIGN.md documents them); these tests pin the defaults and the rule
// order so a silent change shows up as a failing property, not a throughput
// regression three layers up.

std::vector<u32> uniform_lengths(std::size_t n, u32 len) {
  return std::vector<u32>(n, len);
}

TEST(Placement, EmptyBatchStaysOnCpu) {
  const auto d = decide_placement({}, PlacementPolicy{});
  EXPECT_FALSE(d.offload);
  EXPECT_EQ(d.reason, PlacementReason::kEmptyBatch);
  EXPECT_EQ(d.total_bases, 0u);
}

TEST(Placement, MinReadsBoundary) {
  const PlacementPolicy policy{};  // min_reads = 4
  const auto below = decide_placement(uniform_lengths(3, 5000), policy);
  EXPECT_FALSE(below.offload);
  EXPECT_EQ(below.reason, PlacementReason::kSmallBatch);
  const auto at = decide_placement(uniform_lengths(4, 5000), policy);
  EXPECT_TRUE(at.offload);
  EXPECT_EQ(at.reason, PlacementReason::kOffload);
}

TEST(Placement, MinMeanReadLenBoundary) {
  const PlacementPolicy policy{};  // min_mean_read_len = 1000
  const auto below = decide_placement(uniform_lengths(8, 999), policy);
  EXPECT_FALSE(below.offload);
  EXPECT_EQ(below.reason, PlacementReason::kShortReads);
  EXPECT_DOUBLE_EQ(below.mean_len, 999.0);
  const auto at = decide_placement(uniform_lengths(8, 1000), policy);
  EXPECT_TRUE(at.offload);  // boundary is inclusive: mean == threshold offloads
}

TEST(Placement, MaxLengthCvBoundary) {
  const PlacementPolicy policy{};  // max_length_cv = 0.75
  // Two-point distribution {a,a,b,b}: population CV = (b-a)/(a+b).
  const std::vector<u32> skewed = {1000, 1000, 7100, 7100};   // CV ~ 0.753
  const std::vector<u32> uniform = {1000, 1000, 6900, 6900};  // CV ~ 0.747
  const auto rej = decide_placement(skewed, policy);
  EXPECT_FALSE(rej.offload);
  EXPECT_EQ(rej.reason, PlacementReason::kSkewedLengths);
  EXPECT_GT(rej.length_cv, policy.max_length_cv);
  const auto acc = decide_placement(uniform, policy);
  EXPECT_TRUE(acc.offload);
  EXPECT_LT(acc.length_cv, policy.max_length_cv);
}

TEST(Placement, LongReadTraceShapedBatchOffloads) {
  // Lognormal-ish per-batch CV of real simulated traces is ~0.4-0.7; the
  // default policy must accept such batches (this is the regression that
  // once pinned every PacBio batch to the CPU).
  const std::vector<u32> trace = {2200, 3400, 4100, 5200, 6600, 8900, 11000, 14000};
  const auto d = decide_placement(trace, PlacementPolicy{});
  EXPECT_TRUE(d.offload) << "cv=" << d.length_cv;
}

TEST(Placement, RulesApplyInDocumentedOrder) {
  const PlacementPolicy policy{};
  // Small AND short AND skewed: the small-batch rule wins (order 2 < 3 < 4).
  const auto small = decide_placement({10, 100000}, policy);
  EXPECT_EQ(small.reason, PlacementReason::kSmallBatch);
  // Short AND skewed: the short-reads rule wins.
  const auto shrt = decide_placement({10, 10, 10, 900}, policy);
  EXPECT_EQ(shrt.reason, PlacementReason::kShortReads);
}

TEST(Placement, PolicyKnobsAreRespected) {
  PlacementPolicy open;
  open.min_reads = 1;
  open.min_mean_read_len = 1;
  open.max_length_cv = 1e9;
  EXPECT_TRUE(decide_placement({7}, open).offload);
  PlacementPolicy closed;
  closed.min_reads = 100;
  EXPECT_EQ(decide_placement(uniform_lengths(99, 5000), closed).reason,
            PlacementReason::kSmallBatch);
}

TEST(Placement, DecisionCarriesDistributionStats) {
  const auto d = decide_placement({1000, 3000}, PlacementPolicy{});
  EXPECT_EQ(d.total_bases, 4000u);
  EXPECT_DOUBLE_EQ(d.mean_len, 2000.0);
  EXPECT_DOUBLE_EQ(d.length_cv, 0.5);  // population stddev 1000 / mean 2000
}

TEST(BandedPlacement, BandHintRelaxesShortReadFloor) {
  PlacementPolicy policy;  // min_mean 1000, banded factor 0.5
  const auto lens = uniform_lengths(8, 600);
  const auto unbanded = decide_placement(lens, policy);
  EXPECT_FALSE(unbanded.offload);
  EXPECT_EQ(unbanded.reason, PlacementReason::kShortReads);
  const auto banded = decide_placement(lens, policy, 100);
  EXPECT_TRUE(banded.offload);
  EXPECT_TRUE(banded.banded);
  // 500-599 still under the halved floor even banded.
  EXPECT_FALSE(decide_placement(uniform_lengths(8, 499), policy, 100).offload);
}

TEST(BandedPlacement, WideHintDoesNotRelax) {
  PlacementPolicy policy;
  const auto lens = uniform_lengths(8, 600);
  // 2*300+1 = 601 >= mean 600: the band does not narrow these reads, so
  // the unbanded boundaries stay in force.
  const auto d = decide_placement(lens, policy, 300);
  EXPECT_FALSE(d.offload);
  EXPECT_FALSE(d.banded);
  EXPECT_EQ(d.reason, PlacementReason::kShortReads);
}

TEST(BandedPlacement, BandedCellEstimateIsLinearInBand) {
  PlacementPolicy policy;
  const auto lens = uniform_lengths(4, 8'000);
  const auto full = decide_placement(lens, policy);
  const auto banded = decide_placement(lens, policy, 100);
  EXPECT_EQ(full.est_cells, 4ull * 8'000 * 8'000);
  EXPECT_EQ(banded.est_cells, 4ull * 8'000 * 201);
  EXPECT_LT(banded.est_cells, full.est_cells);
}

// ---------------------------------------------------------------------------
// StagingArea: per-stream bump partitions, reset when the last live
// reservation on the stream is released.

TEST(Staging, StageCopiesAndReleaseResets) {
  StagingArea area(/*total_bytes=*/256, /*num_streams=*/2);
  const std::vector<u8> data = {1, 2, 3, 0, 2, 1};
  const auto slot = area.stage(0, data.data(), data.size());
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->stream, 0u);
  EXPECT_EQ(slot->bytes, data.size());
  ASSERT_NE(slot->host, nullptr);
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(slot->host[i], data[i]);
  // The pool hands out aligned granules, so in-use can exceed the payload.
  EXPECT_GE(area.bytes_in_use(0), data.size());
  EXPECT_EQ(area.bytes_in_use(1), 0u);
  area.release(0);
  EXPECT_EQ(area.bytes_in_use(0), 0u);
  EXPECT_EQ(area.staged_bytes(), data.size());  // lifetime counter survives
}

TEST(Staging, SharedPartitionResetsOnlyAfterLastRelease) {
  // Two callers on one stream: the first release must not reset the
  // partition under the second caller's still-staged slice.
  StagingArea area(/*total_bytes=*/256, /*num_streams=*/1);
  const std::vector<u8> mine = {1, 2, 3, 1}, peer = {2, 2, 2, 2}, next = {0, 0, 0, 0};
  const auto held = area.stage(0, mine.data(), mine.size());
  ASSERT_TRUE(held.has_value());
  ASSERT_TRUE(area.stage(0, peer.data(), peer.size()).has_value());
  area.release(0);  // the peer is done; `held` is still live
  EXPECT_GT(area.bytes_in_use(0), 0u);
  ASSERT_TRUE(area.stage(0, next.data(), next.size()).has_value());
  for (std::size_t i = 0; i < mine.size(); ++i) EXPECT_EQ(held->host[i], mine[i]);
  area.release(0);
  area.release(0);
  EXPECT_EQ(area.bytes_in_use(0), 0u);
}

TEST(Staging, ExhaustionFailsCleanlyPerStream) {
  StagingArea area(/*total_bytes=*/64, /*num_streams=*/2);
  const u64 cap = area.per_stream_capacity();
  std::vector<u8> big(cap + 1, 2);
  EXPECT_FALSE(area.stage(0, big.data(), big.size()).has_value());
  EXPECT_EQ(area.bytes_in_use(0), 0u);  // failed stage leaves nothing behind
  EXPECT_EQ(area.stage_failures(), 1u);
  // Fill stream 0 exactly, then verify stream 1 is unaffected.
  std::vector<u8> fit(cap, 3);
  ASSERT_TRUE(area.stage(0, fit.data(), fit.size()).has_value());
  EXPECT_FALSE(area.stage(0, fit.data(), 1).has_value());
  EXPECT_TRUE(area.stage(1, fit.data(), fit.size()).has_value());
}

// ---------------------------------------------------------------------------
// OccupancyTracker: launches accumulate, flush() replays them through the
// device model and folds the run into the cumulative snapshot.

TEST(Occupancy, FlushFoldsLaunchesIntoSnapshot) {
  const simt::DeviceSpec spec = simt::DeviceSpec::v100();
  const simt::Device device(spec);
  OccupancyTracker tracker(/*num_streams=*/4);
  const simt::KernelCost cost = simt::gpu_align_cost(
      128, 128, Layout::kManymap, spec, /*threads=*/128, /*with_cigar=*/false);
  for (int i = 0; i < 6; ++i) tracker.record_launch(cost);
  const auto report = tracker.flush(device);
  EXPECT_GT(report.total_cycles, 0u);
  const auto snap = tracker.snapshot();
  EXPECT_EQ(snap.launches, 6u);
  EXPECT_EQ(snap.flushes, 1u);
  EXPECT_GT(snap.device_seconds, 0.0);
  EXPECT_GE(snap.peak_concurrency, 1u);
  EXPECT_GT(snap.occupancy(), 0.0);
  EXPECT_LE(snap.occupancy(), 1.0);
  EXPECT_GT(snap.stream_utilization(), 0.0);
  EXPECT_LE(snap.stream_utilization(), 1.0);
  // An empty flush is a no-op on the cumulative counters.
  tracker.flush(device);
  EXPECT_EQ(tracker.snapshot().launches, 6u);
}

// ---------------------------------------------------------------------------
// GpuBatchMapper: bit-identity and the fallback ladder.

std::vector<u8> random_seq(u64 seed, i32 len) {
  std::vector<u8> s(static_cast<std::size_t>(len));
  u64 x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (auto& b : s) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<u8>((x * 0x2545f4914f6cdd1dULL) & 3);
  }
  return s;
}

GpuBatchConfig small_config() {
  GpuBatchConfig cfg;
  cfg.num_streams = 2;
  cfg.staging_bytes = u64{1} << 20;
  cfg.min_gpu_cells = 1;  // tiny test segments must still hit the device
  return cfg;
}

TEST(BatchMapper, DeviceScoreMatchesHostKernel) {
  GpuBatchMapper mapper(small_config());
  for (const AlignMode mode : {AlignMode::kGlobal, AlignMode::kExtension}) {
    const auto target = random_seq(11 + static_cast<u64>(mode), 160);
    auto query = target;  // related pair: realistic traceback structure
    query.resize(150);
    query[7] = static_cast<u8>((query[7] + 1) & 3);
    DiffArgs a;
    a.target = target.data();
    a.tlen = static_cast<i32>(target.size());
    a.query = query.data();
    a.qlen = static_cast<i32>(query.size());
    a.mode = mode;
    const AlignResult cpu = mapper.host_align(a);
    const auto seg = mapper.align_segment(a, /*stream=*/0);
    EXPECT_TRUE(seg.on_device);
    EXPECT_FALSE(seg.launch_failed);
    EXPECT_EQ(seg.result.score, cpu.score);
    EXPECT_EQ(seg.result.t_end, cpu.t_end);
    EXPECT_EQ(seg.result.q_end, cpu.q_end);
  }
  const auto stats = mapper.stats();
  EXPECT_EQ(stats.device_kernels, 2u);
  EXPECT_GT(stats.staged_bytes, 0u);
}

TEST(BatchMapper, ExtensionPathSplitReproducesCpuCigar) {
  // Path mode: the device returns the end cell, the host completes a
  // clipped global DP over that prefix — CIGAR must be bit-identical.
  GpuBatchMapper mapper(small_config());
  for (u64 seed = 1; seed <= 4; ++seed) {
    const auto target = random_seq(seed * 101, 140 + static_cast<i32>(seed) * 13);
    auto query = target;
    query.resize(query.size() - 9);
    query[3] = static_cast<u8>((query[3] + 2) & 3);
    DiffArgs a;
    a.target = target.data();
    a.tlen = static_cast<i32>(target.size());
    a.query = query.data();
    a.qlen = static_cast<i32>(query.size());
    a.mode = AlignMode::kExtension;
    a.with_cigar = true;
    const AlignResult cpu = mapper.host_align(a);
    const auto seg = mapper.align_segment(a, static_cast<u32>(seed));
    EXPECT_TRUE(seg.on_device) << "seed " << seed;
    EXPECT_EQ(seg.result.score, cpu.score) << "seed " << seed;
    EXPECT_EQ(seg.result.t_end, cpu.t_end) << "seed " << seed;
    EXPECT_EQ(seg.result.q_end, cpu.q_end) << "seed " << seed;
    EXPECT_EQ(seg.result.cigar.to_string(), cpu.cigar.to_string()) << "seed " << seed;
  }
}

TEST(BatchMapper, MinCellsCutoffKeepsTinySegmentsOnHost) {
  GpuBatchConfig cfg = small_config();
  cfg.min_gpu_cells = 1u << 20;  // nothing in this test clears the bar
  GpuBatchMapper mapper(cfg);
  const auto target = random_seq(5, 64);
  const auto query = random_seq(6, 60);
  DiffArgs a;
  a.target = target.data();
  a.tlen = 64;
  a.query = query.data();
  a.qlen = 60;
  const auto seg = mapper.align_segment(a, 0);
  EXPECT_FALSE(seg.on_device);
  EXPECT_FALSE(seg.launch_failed);
  const auto stats = mapper.stats();  // before host_align, which also counts
  EXPECT_EQ(stats.device_kernels, 0u);
  EXPECT_EQ(stats.host_segments, 1u);
  EXPECT_EQ(stats.staged_bytes, 0u);  // cutoff happens before staging
  EXPECT_EQ(seg.result.score, mapper.host_align(a).score);
}

TEST(BatchMapper, StagingExhaustionFallsBackToHost) {
  GpuBatchConfig cfg = small_config();
  cfg.num_streams = 1;
  cfg.staging_bytes = 64;  // far below one segment's target+query
  GpuBatchMapper mapper(cfg);
  const auto target = random_seq(7, 200);
  const auto query = random_seq(8, 190);
  DiffArgs a;
  a.target = target.data();
  a.tlen = 200;
  a.query = query.data();
  a.qlen = 190;
  const auto seg = mapper.align_segment(a, 0);
  EXPECT_FALSE(seg.on_device);
  EXPECT_FALSE(seg.launch_failed);  // staging exhaustion is the silent rung
  EXPECT_EQ(seg.result.score, mapper.host_align(a).score);
  const auto stats = mapper.stats();
  EXPECT_GE(stats.stage_fallbacks, 1u);
  EXPECT_EQ(stats.device_kernels, 0u);
}

TEST(BatchMapper, InjectedLaunchFailureFlagsAndFallsBack) {
  fault::FaultPlan plan(42);
  plan.arm({"gpu.launch", fault::FaultKind::kError, /*one_in=*/1, /*max_fires=*/1});
  fault::ScopedPlan guard(&plan);
  GpuBatchMapper mapper(small_config());
  const auto target = random_seq(9, 150);
  const auto query = random_seq(10, 140);
  DiffArgs a;
  a.target = target.data();
  a.tlen = 150;
  a.query = query.data();
  a.qlen = 140;
  const auto failed = mapper.align_segment(a, 0);
  EXPECT_TRUE(failed.launch_failed);  // flagged so the service can requeue
  EXPECT_FALSE(failed.on_device);
  EXPECT_EQ(failed.result.score, mapper.host_align(a).score);
  EXPECT_EQ(mapper.stats().launch_failures, 1u);
  // The plan's single fire is spent: the next segment launches normally.
  const auto ok = mapper.align_segment(a, 0);
  EXPECT_TRUE(ok.on_device);
  EXPECT_FALSE(ok.launch_failed);
}

TEST(BatchMapper, InjectedStageOomIsSilentFallback) {
  fault::FaultPlan plan(43);
  plan.arm({"gpu.stage_oom", fault::FaultKind::kError, /*one_in=*/1, /*max_fires=*/1});
  fault::ScopedPlan guard(&plan);
  GpuBatchMapper mapper(small_config());
  const auto target = random_seq(12, 120);
  const auto query = random_seq(13, 110);
  DiffArgs a;
  a.target = target.data();
  a.tlen = 120;
  a.query = query.data();
  a.qlen = 110;
  const auto seg = mapper.align_segment(a, 1);
  EXPECT_FALSE(seg.on_device);
  EXPECT_FALSE(seg.launch_failed);  // OOM never escalates to a requeue
  EXPECT_EQ(seg.result.score, mapper.host_align(a).score);
  EXPECT_GE(mapper.stats().stage_fallbacks, 1u);
}

TEST(BatchMapper, QueryThatDoesNotFitStagesNothing) {
  // 2 streams x 512 bytes: the 300-byte target would fit, its query then
  // would not, so neither slice is copied or counted.
  GpuBatchConfig cfg = small_config();
  cfg.staging_bytes = 1024;
  GpuBatchMapper mapper(cfg);
  const auto target = random_seq(14, 300);
  const auto query = random_seq(15, 300);
  DiffArgs a;
  a.target = target.data();
  a.tlen = 300;
  a.query = query.data();
  a.qlen = 300;
  a.with_cigar = true;
  const auto seg = mapper.align_segment(a, 0);
  EXPECT_FALSE(seg.on_device);
  EXPECT_FALSE(seg.launch_failed);
  const auto stats = mapper.stats();
  EXPECT_EQ(stats.staged_bytes, 0u);
  EXPECT_EQ(stats.stage_fallbacks, 1u);
  EXPECT_EQ(stats.device_kernels, 0u);
  const AlignResult host = mapper.host_align(a);
  EXPECT_EQ(seg.result.score, host.score);
  EXPECT_EQ(seg.result.cigar, host.cigar);
}

TEST(BatchMapper, ThreadsSharingOneStreamMatchHost) {
  // Service workers outnumber streams (or a respawned worker reuses its
  // predecessor's stream), so two callers can drive one staging
  // partition at once. Each must read back its own staged slices.
  GpuBatchConfig cfg = small_config();
  cfg.num_streams = 1;
  cfg.min_gpu_cells = 4096;  // the production cutoff; every segment clears it
  GpuBatchMapper mapper(cfg);
  constexpr int kThreads = 2;
  constexpr int kSegments = 60;
  struct Segment {
    std::vector<u8> target, query;
    AlignResult want;
  };
  std::vector<std::vector<Segment>> work(kThreads);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kSegments; ++i) {
      Segment s;
      s.target = random_seq(1000 * static_cast<u64>(t + 1) + static_cast<u64>(i),
                            80 + (i % 7) * 3);
      s.query = s.target;
      s.query.resize(s.query.size() - static_cast<std::size_t>(i % 5));
      s.query[static_cast<std::size_t>(i % 11)] ^= 1;
      work[static_cast<std::size_t>(t)].push_back(std::move(s));
    }
  auto args_of = [](const Segment& s) {
    DiffArgs a;
    a.target = s.target.data();
    a.tlen = static_cast<i32>(s.target.size());
    a.query = s.query.data();
    a.qlen = static_cast<i32>(s.query.size());
    a.mode = AlignMode::kExtension;
    return a;
  };
  for (auto& segs : work)
    for (Segment& s : segs) {
      ASSERT_GE(static_cast<u64>(s.target.size()) * s.query.size(), cfg.min_gpu_cells);
      s.want = mapper.config().host_kernel(args_of(s));
    }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (const Segment& s : work[static_cast<std::size_t>(t)]) {
        const auto seg = mapper.align_segment(args_of(s), /*stream=*/0);
        if (!seg.on_device || seg.result.score != s.want.score ||
            seg.result.t_end != s.want.t_end || seg.result.q_end != s.want.q_end)
          ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
  EXPECT_EQ(mapper.stats().device_kernels, static_cast<u64>(kThreads * kSegments));
}

TEST(BatchMapper, PlaceCountsDecisions) {
  GpuBatchMapper mapper(small_config());
  EXPECT_TRUE(mapper.place(uniform_lengths(8, 4000)).offload);
  EXPECT_FALSE(mapper.place(uniform_lengths(2, 4000)).offload);
  const auto stats = mapper.stats();
  EXPECT_EQ(stats.offload_batches, 1u);
  EXPECT_EQ(stats.cpu_batches, 1u);
}

// ---------------------------------------------------------------------------
// AlignmentService end-to-end. The workload keeps reads short and the
// placement policy loosened so the interpreter-backed device path stays
// fast while still offloading every batch.

struct GpuWorkload {
  Reference ref;
  std::vector<Sequence> reads;
  std::vector<std::string> serial_paf;

  GpuWorkload() {
    GenomeParams gp;
    gp.total_length = 40'000;
    gp.num_contigs = 2;
    gp.seed = 777;
    ref = generate_genome(gp);
    ReadSimParams rp;
    rp.num_reads = 32;
    rp.seed = 778;
    rp.profile.log_mu = std::log(500.0);
    rp.profile.log_sigma = 0.35;
    rp.profile.min_length = 250;
    rp.profile.max_length = 900;
    for (auto& sr : ReadSimulator(ref, rp).simulate()) reads.push_back(std::move(sr.read));
    const Mapper mapper(ref, MapOptions::map_pb());
    for (const auto& r : reads) serial_paf.push_back(to_paf_block(mapper.map(r)));
  }
};

const GpuWorkload& gpu_workload() {
  static const GpuWorkload w;
  return w;
}

ServiceConfig gpu_service_config() {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 2;
  cfg.batch.max_batch_size = 8;
  cfg.gpu.enabled = true;
  cfg.gpu.batch.num_streams = 2;
  cfg.gpu.batch.min_gpu_cells = 1;
  cfg.gpu.batch.placement.min_reads = 1;
  cfg.gpu.batch.placement.min_mean_read_len = 100;
  cfg.gpu.batch.placement.max_length_cv = 4.0;
  return cfg;
}

TEST(ServiceGpu, OffloadedResponsesMatchSerialMapper) {
  const auto& w = gpu_workload();
  AlignmentService svc(w.ref, gpu_service_config());
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  u64 on_device = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.paf, w.serial_paf[i]) << "read " << i;
    if (r.on_device) ++on_device;
  }
  svc.shutdown();
  EXPECT_GT(on_device, 0u);
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.completed, w.reads.size());
  EXPECT_GT(snap.gpu_offload_batches, 0u);
  EXPECT_EQ(snap.gpu_requests, on_device);
  EXPECT_GT(snap.gpu_device_kernels, 0u);
  EXPECT_GT(snap.gpu_staged_bytes, 0u);
  EXPECT_GT(snap.gpu_device_seconds, 0.0);
  EXPECT_GT(snap.gpu_occupancy, 0.0);
  EXPECT_GT(snap.gpu_stream_utilization, 0.0);
}

TEST(ServiceGpu, LaunchFailureStormRequeuesExactlyOnceAndDropsNothing) {
  const auto& w = gpu_workload();
  fault::FaultPlan plan(4242);
  plan.arm({"gpu.launch", fault::FaultKind::kError, /*one_in=*/3});
  fault::ScopedPlan guard(&plan);
  AlignmentService svc(w.ref, gpu_service_config());
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  // Exactly one response per request (a duplicate fulfil would throw
  // std::future_error inside the service), every one kOk + byte-identical
  // — the remainder of a failed batch must be served, not dropped.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << r.error;
    EXPECT_EQ(r.id, i);
    EXPECT_EQ(r.paf, w.serial_paf[i]) << "read " << i;
  }
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.completed, w.reads.size());
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_GT(snap.gpu_launch_failures, 0u);  // the storm actually fired
  // Requeues are bounded by one per launch failure: a re-queued remainder
  // is cpu_only and never re-enters the device path.
  EXPECT_LE(snap.gpu_requeued_batches, snap.gpu_launch_failures);
}

TEST(ServiceGpu, SkewedBatchesStayOnCpuPath) {
  const auto& w = gpu_workload();
  ServiceConfig cfg = gpu_service_config();
  cfg.gpu.batch.placement.min_mean_read_len = 1'000'000;  // reject everything
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < 12; ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_FALSE(r.on_device);
    EXPECT_EQ(r.paf, w.serial_paf[i]);
  }
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.gpu_offload_batches, 0u);
  EXPECT_GT(snap.gpu_cpu_batches, 0u);
  EXPECT_EQ(snap.gpu_requests, 0u);
}

}  // namespace
}  // namespace gpu
}  // namespace manymap
