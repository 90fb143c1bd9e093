#include "gpu/gpu_mapper.hpp"

namespace manymap {

GpuMapReport gpu_map_reads(const Reference& reference, const MapOptions& options,
                           const std::vector<Sequence>& reads,
                           const gpu::GpuBatchConfig& config) {
  GpuMapReport report;
  gpu::GpuBatchMapper offload(config);
  // Every DP segment goes through the batch mapper; a segment counts as a
  // device kernel only when its score pass ran there, so host path
  // completion is not counted as a host segment.
  const std::function<AlignResult(const DiffArgs&)> kernel = [&](const DiffArgs& a) {
    gpu::GpuBatchMapper::SegmentResult seg = offload.align_segment(a, /*stream=*/0);
    if (seg.on_device) {
      ++report.gpu_kernels;
      report.gpu_cells += static_cast<u64>(a.tlen) * static_cast<u64>(a.qlen);
    } else {
      ++report.cpu_segments;
    }
    return std::move(seg.result);
  };
  MapCall call;
  call.kernel_override = &kernel;
  const Mapper mapper(reference, options);
  report.mappings.reserve(reads.size());
  for (const auto& read : reads) report.mappings.push_back(mapper.map(read, call));

  const simt::Device::RunReport run = offload.flush();
  report.device_seconds = run.seconds;
  report.achieved_concurrency = run.achieved_concurrency;
  return report;
}

}  // namespace manymap
