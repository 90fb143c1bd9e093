// GpuBatchMapper — the device offload subsystem (§4.5): takes whole
// scheduler batches, stages their reads into per-stream pinned-style host
// buffers, launches score-mode DP on the simulated device across its
// resident grids, and completes path mode on the host from the
// device-returned end cells. The quadratic dirs area therefore never
// lands on the device:
//   - score-only segments return the device result directly;
//   - extension segments with a CIGAR re-run a *clipped* global DP on the
//     host over the (t_end+1) x (q_end+1) prefix the device found — the
//     DP recurrence is prefix-closed, so score, end cell and CIGAR are
//     bit-identical to the pure-CPU extension path;
//   - global segments with a CIGAR keep the full path DP on the host (the
//     device score pass contributes the simulated-time accounting).
// Device failures are native fallbacks, not errors: staging exhaustion
// ("gpu.stage_oom") silently serves the segment on the CPU; a launch
// failure ("gpu.launch") also answers on the CPU but is flagged so the
// service can re-queue the rest of the batch onto CPU workers.
#pragma once

#include <atomic>

#include "align/kernel_api.hpp"
#include "gpu/occupancy.hpp"
#include "gpu/placement.hpp"
#include "gpu/staging.hpp"
#include "simt/device.hpp"
#include "simt/kernels.hpp"

namespace manymap {
namespace gpu {

struct GpuBatchConfig {
  Layout layout = Layout::kManymap;
  u32 threads_per_block = 512;
  /// Host staging streams; service workers are assigned one each
  /// (round-robin) so concurrent batches use distinct partitions.
  u32 num_streams = 8;
  u64 staging_bytes = u64{64} << 20;
  /// DP segments below this many cells stay on the host: a launch would
  /// cost more than the work.
  u64 min_gpu_cells = 4096;
  simt::DeviceSpec spec = simt::DeviceSpec::v100();
  PlacementPolicy placement{};
  /// Host kernel for path completion and CPU fallback; nullptr resolves
  /// the widest available diff kernel for `layout` at construction.
  KernelFn host_kernel = nullptr;
};

/// Point-in-time counters of the offload subsystem (all monotonic).
struct GpuBatchStats {
  u64 offload_batches = 0;   ///< placement decisions that chose the device
  u64 cpu_batches = 0;       ///< placement decisions that stayed on the CPU
  u64 device_kernels = 0;    ///< score-mode kernels launched on the device
  u64 host_segments = 0;     ///< segments kept host-side (cutoff/fallback)
  u64 device_cells = 0;
  u64 host_cells = 0;
  u64 staged_bytes = 0;      ///< bytes copied into the staging partitions
  u64 stage_fallbacks = 0;   ///< staging exhaustion -> CPU fallbacks
  u64 launch_failures = 0;   ///< device launch failures (fault site)
  OccupancySnapshot occupancy{};
};

class GpuBatchMapper {
 public:
  explicit GpuBatchMapper(const GpuBatchConfig& cfg);

  struct SegmentResult {
    AlignResult result;
    bool on_device = false;      ///< the score pass ran on the device
    bool launch_failed = false;  ///< device launch failed; result is the
                                 ///< CPU fallback (bit-identical)
  };

  /// Place one batch from its read-length distribution; counts the
  /// decision in the stats. Thread-safe. `band_hint` is the kernel band
  /// the batch's DP segments will run with (0 = unbanded; the service
  /// passes MapOptions::band), so banded batches are judged on O(band)
  /// device cell estimates and offload earlier.
  PlacementDecision place(const std::vector<u32>& read_lengths, i32 band_hint = 0);

  /// Align one DP segment on the device path bound to `stream` (taken
  /// modulo the configured stream count). Never throws for device-side
  /// failures — every failure mode answers via the host kernel.
  SegmentResult align_segment(const DiffArgs& args, u32 stream);

  /// Plain host-kernel alignment (the fallback rung; also used to finish
  /// a batch whose device launch already failed).
  AlignResult host_align(const DiffArgs& args);

  /// Replay the launches accumulated since the last flush through the
  /// device model; called once per completed batch.
  simt::Device::RunReport flush() { return occupancy_.flush(device_); }

  GpuBatchStats stats() const;
  const GpuBatchConfig& config() const { return cfg_; }
  const simt::Device& device() const { return device_; }

 private:
  GpuBatchConfig cfg_;
  simt::Device device_;
  StagingArea staging_;
  OccupancyTracker occupancy_;
  std::atomic<u64> offload_batches_{0}, cpu_batches_{0};
  std::atomic<u64> device_kernels_{0}, host_segments_{0};
  std::atomic<u64> device_cells_{0}, host_cells_{0};
  std::atomic<u64> launch_failures_{0};
};

}  // namespace gpu
}  // namespace manymap
