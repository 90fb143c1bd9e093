#include "gpu/batch_mapper.hpp"

#include <utility>

#include "fault/fault.hpp"

namespace manymap {
namespace gpu {

namespace {

/// DP cells a segment actually touches: the full matrix, or — banded —
/// at most the band width per anti-diagonal. Drives the launch cutoff and
/// the device/host cell accounting.
u64 segment_cells(i32 tlen, i32 qlen, i32 band) {
  const u64 full = static_cast<u64>(tlen) * static_cast<u64>(qlen);
  if (band <= 0 || tlen == 0 || qlen == 0) return full;
  const u64 ndiag = static_cast<u64>(tlen) + static_cast<u64>(qlen) - 1;
  return std::min(full, ndiag * (2 * static_cast<u64>(band) + 1));
}

}  // namespace

GpuBatchMapper::GpuBatchMapper(const GpuBatchConfig& cfg)
    : cfg_(cfg),
      device_(cfg.spec),
      staging_(cfg.staging_bytes, cfg.num_streams > 0 ? cfg.num_streams : 1),
      occupancy_(cfg.num_streams > 0 ? cfg.num_streams : 1) {
  if (cfg_.host_kernel == nullptr) cfg_.host_kernel = get_diff_kernel(cfg_.layout, best_isa());
  MM_REQUIRE(cfg_.host_kernel != nullptr, "no host kernel available for GPU fallback");
}

PlacementDecision GpuBatchMapper::place(const std::vector<u32>& read_lengths,
                                        i32 band_hint) {
  const PlacementDecision d = decide_placement(read_lengths, cfg_.placement, band_hint);
  if (d.offload) offload_batches_.fetch_add(1, std::memory_order_relaxed);
  else cpu_batches_.fetch_add(1, std::memory_order_relaxed);
  return d;
}

AlignResult GpuBatchMapper::host_align(const DiffArgs& a) {
  host_segments_.fetch_add(1, std::memory_order_relaxed);
  host_cells_.fetch_add(segment_cells(a.tlen, a.qlen, a.band), std::memory_order_relaxed);
  return cfg_.host_kernel(a);
}

GpuBatchMapper::SegmentResult GpuBatchMapper::align_segment(const DiffArgs& a,
                                                            u32 stream) {
  SegmentResult seg;
  const u64 cells = segment_cells(a.tlen, a.qlen, a.band);
  if (cells < cfg_.min_gpu_cells) {
    seg.result = host_align(a);
    return seg;
  }
  stream %= staging_.num_streams();

  // Stage the segment's sequence slices into the stream's partition; an
  // exhausted partition is the §4.5.2 allocator-failure path -> CPU.
  const auto slots = staging_.stage_pair(stream, a.target, static_cast<u64>(a.tlen), a.query,
                                         static_cast<u64>(a.qlen));
  if (!slots) {
    seg.result = host_align(a);
    return seg;
  }

  if (MM_INJECT_FAIL("gpu.launch")) {
    staging_.release(stream);
    launch_failures_.fetch_add(1, std::memory_order_relaxed);
    seg.launch_failed = true;
    seg.result = host_align(a);
    return seg;
  }

  // Score pass on the device from the staged copies: with_cigar is forced
  // off, so the kernel holds only the linear difference arrays — the
  // quadratic dirs area never lands on the device.
  DiffArgs dev = a;
  dev.target = slots->first.host;
  dev.query = slots->second.host;
  dev.with_cigar = false;
  dev.spill = nullptr;
  dev.spill_block_rows = 0;
  simt::GpuAlignResult gpu;
  try {
    gpu = simt::gpu_align(dev, cfg_.layout, device_.spec(), cfg_.threads_per_block);
  } catch (...) {
    // Drop the reservation on a throw too (an injected arena fault):
    // a shared partition resets only once every reservation is released.
    staging_.release(stream);
    throw;
  }
  occupancy_.record_launch(gpu.cost);
  device_kernels_.fetch_add(1, std::memory_order_relaxed);
  device_cells_.fetch_add(cells, std::memory_order_relaxed);
  staging_.release(stream);
  seg.on_device = true;

  AlignResult r = std::move(gpu.result);
  if (a.with_cigar && r.band_hit) {
    // The banded device score pass could not prove its answer optimal.
    // Skip path completion — the caller (Mapper's auto-full fallback)
    // reruns the segment unbanded anyway.
  } else if (a.with_cigar) {
    if (a.mode == AlignMode::kExtension && r.t_end >= 0 && r.q_end >= 0) {
      // Path-on-host over the prefix the device found: the DP recurrence
      // is prefix-closed, so a global pass over [0..t_end] x [0..q_end]
      // reproduces the extension CIGAR bit-identically. The device score
      // and end cell stay authoritative. The prefix pass runs unbanded:
      // its diagonal geometry differs from the full matrix's band, and an
      // unflagged banded score already equals the unbanded optimum.
      DiffArgs host = a;
      host.tlen = r.t_end + 1;
      host.qlen = r.q_end + 1;
      host.mode = AlignMode::kGlobal;
      host.band = 0;
      host.zdrop = 0;
      AlignResult path = host_align(host);
      r.cigar = std::move(path.cigar);
    } else {
      // Global path mode needs the full matrix anyway; the host run is
      // authoritative (identical score — the device pass contributed the
      // simulated-time accounting).
      r = host_align(a);
    }
  }
  seg.result = std::move(r);
  return seg;
}

GpuBatchStats GpuBatchMapper::stats() const {
  GpuBatchStats s;
  s.offload_batches = offload_batches_.load(std::memory_order_relaxed);
  s.cpu_batches = cpu_batches_.load(std::memory_order_relaxed);
  s.device_kernels = device_kernels_.load(std::memory_order_relaxed);
  s.host_segments = host_segments_.load(std::memory_order_relaxed);
  s.device_cells = device_cells_.load(std::memory_order_relaxed);
  s.host_cells = host_cells_.load(std::memory_order_relaxed);
  s.staged_bytes = staging_.staged_bytes();
  s.stage_fallbacks = staging_.stage_failures();
  s.launch_failures = launch_failures_.load(std::memory_order_relaxed);
  s.occupancy = occupancy_.snapshot();
  return s;
}

}  // namespace gpu
}  // namespace manymap
