// GPU-offloaded mapping (paper §4.2 / Fig. 1 right column): the host runs
// seeding, chaining and CIGAR stitching while every base-level DP segment
// goes through the offload subsystem (gpu::GpuBatchMapper) — segments
// large enough to amortize a kernel launch run their score pass on the
// device model, and path completion stays on the host. Results are
// bit-identical to the CPU path (asserted by tests); the device's
// simulated time for the score passes is what the Figure 11 "GPU" bar
// measures.
#pragma once

#include <vector>

#include "core/mapper.hpp"
#include "gpu/batch_mapper.hpp"

namespace manymap {

struct GpuMapReport {
  std::vector<std::vector<Mapping>> mappings;  ///< per read, best-first
  u64 gpu_kernels = 0;           ///< segments whose score pass ran on the device
  u64 cpu_segments = 0;          ///< segments answered on the host (cutoff/fallback)
  u64 gpu_cells = 0;             ///< DP cells of the device segments
  double device_seconds = 0.0;   ///< simulated device time (score passes)
  u32 achieved_concurrency = 0;
};

/// Map reads with the align stage offloaded through one GpuBatchMapper
/// built from `config` (cutoff, streams, device spec). `reference` and
/// `options` describe the same mapping job a plain Mapper would run — only
/// the kernel dispatch differs.
GpuMapReport gpu_map_reads(const Reference& reference, const MapOptions& options,
                           const std::vector<Sequence>& reads,
                           const gpu::GpuBatchConfig& config = {});

}  // namespace manymap
