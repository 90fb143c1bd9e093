#include "core/aligner.hpp"

#include <map>
#include <mutex>

namespace manymap {

Aligner::BatchResult Aligner::map_reads(std::vector<Sequence> reads, PipelineKind pipeline,
                                        u32 compute_threads, u64 batch_bases) const {
  BatchResult result;
  auto batches = make_batches(std::move(reads), batch_bases);
  auto source = vector_source(std::move(batches));

  ComputeFn compute = [this](const Sequence& read) {
    return to_paf_block(mapper_.map(read));
  };
  std::mutex out_mu;
  std::map<u64, std::string> chunks;
  OutputSink sink = [&](u64 batch_id, const std::vector<std::string>& lines) {
    std::string blob;
    u64 mapped = 0;
    for (const auto& l : lines) {
      blob += l;
      mapped += l.empty() ? 0 : 1;
    }
    std::lock_guard lock(out_mu);
    chunks.emplace(batch_id, std::move(blob));
    result.mapped += mapped;
  };

  PipelineOptions opt;
  opt.compute_threads = compute_threads;
  opt.sort_longest_first = pipeline == PipelineKind::kManymap;
  result.stats = pipeline == PipelineKind::kManymap
                     ? run_manymap_pipeline(source, compute, sink, opt)
                     : run_minimap2_pipeline(source, compute, sink, opt);
  for (auto& [id, blob] : chunks) result.paf += blob;
  return result;
}

}  // namespace manymap
