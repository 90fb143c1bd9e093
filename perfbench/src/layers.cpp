// The traced per-layer pass. Every layer is measured from outside, by
// timing calls into its public entry point:
//   index  sketch()                      chain  collect_anchors(), chain_anchors()
//   align  the DP kernels, through a MapCall kernel override that calls
//          align_with_fallback with the configured kernel (answers unchanged)
//   core   Mapper::map's align phase outside the kernels (MapTimings),
//          to_paf_block(), and heap allocations per Mapper::map call.
// The sketch/anchor/chain calls repeat work Mapper::map does again inside;
// that repetition is part of the tracing overhead the run reports.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "align/fallback.hpp"
#include "chain/chain.hpp"
#include "core/paf.hpp"
#include "index/index_io.hpp"

#include "bench.hpp"

namespace manymap::perfbench {

namespace {

/// One kernel family (gap fills or extensions) as seen by the override.
struct KernelLayer {
  u64 calls = 0;
  u64 cells = 0;
  double seconds = 0.0;
};

double ns_per(double seconds, std::size_t reads) {
  return reads == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(reads);
}

double per(double total, std::size_t reads) {
  return reads == 0 ? 0.0 : total / static_cast<double>(reads);
}

/// Maps reads like to_paf_block(mapper.map(read)) with a timer around every
/// public layer entry point, accumulating the per-layer totals.
class LayerTracer {
 public:
  explicit LayerTracer(const Mapper& mapper)
      : mapper_(mapper),
        opt_(mapper.options()),
        kernel_(get_diff_kernel(opt_.layout, opt_.isa)),
        traced_kernel_([this](const DiffArgs& a) { return run_kernel(a); }) {}
  LayerTracer(const LayerTracer&) = delete;  // traced_kernel_ captures this
  LayerTracer& operator=(const LayerTracer&) = delete;

  std::string map(const Sequence& read) {
    const u32 qlen = static_cast<u32>(read.size());
    auto t0 = Clock::now();
    const auto mins = sketch(read.codes, 0, opt_.sketch);
    const auto t1 = Clock::now();
    const auto anchors = collect_anchors(mapper_.index(), mins, qlen, mapper_.max_occ());
    const auto t2 = Clock::now();
    const auto chains = chain_anchors(anchors, opt_.chain);
    const auto t3 = Clock::now();
    sketch_s_ += seconds_between(t0, t1);
    anchor_s_ += seconds_between(t1, t2);
    chain_s_ += seconds_between(t2, t3);
    minimizers_ += mins.size();
    anchors_ += anchors.size();
    chains_ += chains.size();
    chains_aligned_ += std::min<std::size_t>(chains.size(), opt_.max_mappings);

    MapCall call;
    call.timings = &timings_;
    call.kernel_override = &traced_kernel_;
    const AllocCount a0 = thread_allocs();
    const auto mappings = mapper_.map(read, call);
    const AllocCount a1 = thread_allocs();
    allocs_.calls += a1.calls - a0.calls;
    allocs_.bytes += a1.bytes - a0.bytes;

    t0 = Clock::now();
    std::string paf = to_paf_block(mappings);
    paf_s_ += seconds_between(t0, Clock::now());
    return paf;
  }

  /// Adds the index/chain/align/core per-read metrics over `n` reads.
  void add_metrics(Result& out, std::size_t n) const {
    const double kernel_s = gap_.seconds + ext_.seconds;
    const u64 kernel_cells = gap_.cells + ext_.cells;
    out.add("index.sketch_ns_per_read", ns_per(sketch_s_, n), "ns");
    out.add("index.minimizers_per_read", per(minimizers_, n), "count");
    out.add("chain.anchor_ns_per_read", ns_per(anchor_s_, n), "ns");
    out.add("chain.anchors_per_read", per(anchors_, n), "count");
    out.add("chain.chain_ns_per_read", ns_per(chain_s_, n), "ns");
    out.add("chain.chains_per_read", per(chains_, n), "count");
    out.add("chain.chains_aligned_per_read", per(chains_aligned_, n), "count");
    for (const auto& [name, layer] : {std::pair{"gap", &gap_}, std::pair{"ext", &ext_}}) {
      const std::string p = std::string("align.") + name;
      out.add(p + ".calls_per_read", per(layer->calls, n), "count");
      out.add(p + ".ns_per_read", ns_per(layer->seconds, n), "ns");
      out.add(p + ".cells_per_read", per(layer->cells, n), "count");
      out.add(p + ".gcups", gcups(layer->cells, layer->seconds), "GCUPS");
    }
    const MapTimings& t = timings_;
    const u64 auto_total = t.auto_band_kernels + t.auto_band_full;
    out.add("align.banded_frac",
            auto_total == 0 ? 0.0 : static_cast<double>(t.auto_band_kernels) / auto_total,
            "fraction");
    // No banded kernel ran: no band could fail, so the hold rate is 1.
    out.add("align.band_hold_rate",
            t.auto_band_kernels == 0
                ? 1.0
                : 1.0 - static_cast<double>(t.band_fallbacks) / t.auto_band_kernels,
            "fraction");
    // Cells the mapper counted that no wrapped kernel ran: the huge-gap path.
    out.add("align.hugegap_cells_per_read",
            per(static_cast<double>(t.dp_cells - std::min(t.dp_cells, kernel_cells)), n),
            "count");
    out.add("core.dp_cells_per_read", per(t.dp_cells, n), "count");
    out.add("core.outside_kernel_ns_per_read",
            ns_per(std::max(0.0, t.align_seconds - kernel_s), n), "ns");
    out.add("core.paf_ns_per_read", ns_per(paf_s_, n), "ns");
    out.add("core.allocs_per_read", per(allocs_.calls, n), "count");
    out.add("core.alloc_bytes_per_read", per(allocs_.bytes, n), "B");
    std::printf("traced: %zu reads, %.0f%% of DP cells in extensions\n", n,
                t.dp_cells == 0 ? 0.0 : 100.0 * ext_.cells / t.dp_cells);
  }

 private:
  AlignResult run_kernel(const DiffArgs& a) {
    KernelLayer& layer = a.mode == AlignMode::kGlobal ? gap_ : ext_;
    ++layer.calls;
    const auto t0 = Clock::now();
    try {
      AlignResult r = align_with_fallback(a, kernel_, opt_.layout);
      layer.seconds += seconds_between(t0, Clock::now());
      layer.cells += r.cells;
      return r;
    } catch (...) {  // BandHitError: the mapper reruns the segment unbanded
      layer.seconds += seconds_between(t0, Clock::now());
      throw;
    }
  }

  const Mapper& mapper_;
  const MapOptions& opt_;
  const KernelFn kernel_;
  const std::function<AlignResult(const DiffArgs&)> traced_kernel_;
  KernelLayer gap_, ext_;
  double sketch_s_ = 0.0, anchor_s_ = 0.0, chain_s_ = 0.0, paf_s_ = 0.0;
  u64 minimizers_ = 0, anchors_ = 0, chains_ = 0, chains_aligned_ = 0;
  AllocCount allocs_;
  MapTimings timings_;
};

/// Median of several checksummed mmap loads of `index` saved under `workdir`.
double index_load_seconds(const MinimizerIndex& index, const std::string& workdir) {
  const std::string path = (std::filesystem::path(workdir) / "layer_index.mmi").string();
  save_index(path, index);
  std::vector<double> times;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    IndexLoadResult loaded = try_load_index_mmap(path, IndexLoadOptions{true});
    times.push_back(seconds_between(t0, Clock::now()));
    MM_REQUIRE(loaded.ok(), "saved index failed to load: " + loaded.message);
  }
  std::filesystem::remove(path);
  return median(times);
}

}  // namespace

std::size_t run_layer_passes(const Mapper& mapper, const std::vector<SimulatedRead>& reads,
                             double budget_s, const std::string& workdir, Result& out) {
  out.add("index.load_s", index_load_seconds(mapper.index(), workdir), "s");
  LayerTracer tracer(mapper);
  double plain_s = 0.0, traced_s = 0.0;
  std::size_t n = 0, diffs = 0;
  const auto start = Clock::now();
  for (; n < reads.size() && (n == 0 || seconds_between(start, Clock::now()) < budget_s); ++n) {
    const Sequence& read = reads[n].read;
    std::string plain, traced;
    const auto run_plain = [&] {
      const auto t0 = Clock::now();
      plain = to_paf_block(mapper.map(read));
      plain_s += seconds_between(t0, Clock::now());
    };
    const auto run_traced = [&] {
      const auto t0 = Clock::now();
      traced = tracer.map(read);
      traced_s += seconds_between(t0, Clock::now());
    };
    // ABBA order: each pass maps every other read first, so warm caches and
    // drifting machine speed favour neither pass.
    if (n % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    diffs += plain != traced;
  }
  tracer.add_metrics(out, n);
  out.check(diffs == 0, "traced PAF differs from untraced PAF on " + std::to_string(diffs) +
                            " of " + std::to_string(n) + " reads");
  out.add("bench.tracing_overhead_frac", plain_s > 0 ? traced_s / plain_s - 1.0 : 0.0,
          "fraction");
  std::printf("layer passes: %zu reads each, untraced %.3f s, traced %.3f s\n", n, plain_s,
              traced_s);
  return n;
}

}  // namespace manymap::perfbench
