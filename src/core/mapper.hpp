// End-to-end long-read mapper: seed (minimizers) -> chain -> extend
// (base-level alignment with the difference-based kernels). This is the
// seed-chain-extend workflow of §3.1 with manymap's kernels plugged into
// the align step.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "sequence/sequence.hpp"

namespace manymap {

struct Mapping {
  std::string qname;
  u32 qlen = 0;
  u32 qstart = 0;  ///< 0-based, on the original read strand
  u32 qend = 0;    ///< exclusive
  bool rev = false;
  u32 rid = 0;
  std::string rname;
  u64 rlen = 0;
  u64 tstart = 0;  ///< 0-based reference start
  u64 tend = 0;    ///< exclusive
  i64 score = 0;   ///< DP score of the stitched alignment
  i32 chain_score = 0;
  u32 mapq = 0;
  bool primary = true;
  u64 matches = 0;      ///< exactly matching bases
  u64 align_length = 0; ///< alignment columns (M+I+D)
  Cigar cigar;

  double identity() const {
    return align_length == 0 ? 0.0
                             : static_cast<double>(matches) / static_cast<double>(align_length);
  }
};

/// Per-read stage timing accumulation (Table 2 / Fig. 11 instrumentation),
/// plus fallback-ladder accounting (which rung answered, see
/// align/fallback.hpp).
struct MapTimings {
  double seed_chain_seconds = 0.0;
  double align_seconds = 0.0;
  u64 dp_cells = 0;
  u64 kernel_retries = 0;          ///< failed kernel attempts absorbed
  u32 deepest_fallback_rung = 0;   ///< 0 = dispatched, 1 = scalar, 2 = banded ref
  u64 streamed_kernels = 0;        ///< kernel calls run with streamed dirs
  u64 dirs_spilled_bytes = 0;      ///< direction bytes written to spill sinks
  // Banding accounting: every run_kernel call is either a banded attempt
  // (MapOptions::band or MapCall::band > 0) or an unbanded run, and
  // band_fallbacks counts the banded attempts rerun unbanded on band_hit.
  // The first two keep their historical names because perfbench reads them.
  u64 auto_band_kernels = 0;  ///< kernel calls attempted with a band
  u64 auto_band_full = 0;     ///< kernel calls run unbanded
  u64 band_fallbacks = 0;     ///< banded kernels rerun unbanded on band_hit
  u64 chains = 0;             ///< chains built by chain_anchors
  u64 chains_aligned = 0;     ///< chains kept by selection and turned into mappings

  MapTimings& operator+=(const MapTimings& o) {
    seed_chain_seconds += o.seed_chain_seconds;
    align_seconds += o.align_seconds;
    dp_cells += o.dp_cells;
    kernel_retries += o.kernel_retries;
    auto_band_kernels += o.auto_band_kernels;
    auto_band_full += o.auto_band_full;
    band_fallbacks += o.band_fallbacks;
    chains += o.chains;
    chains_aligned += o.chains_aligned;
    deepest_fallback_rung = deepest_fallback_rung > o.deepest_fallback_rung
                                ? deepest_fallback_rung
                                : o.deepest_fallback_rung;
    streamed_kernels += o.streamed_kernels;
    dirs_spilled_bytes += o.dirs_spilled_bytes;
    return *this;
  }
};

/// Thrown by Mapper::map when a MapCall deadline expires mid-compute; the
/// cooperative checks sit between the seed/chain/align stages so a slow
/// alignment cannot blow past its deadline by more than one stage.
class MapDeadlineExceeded : public std::runtime_error {
 public:
  MapDeadlineExceeded() : std::runtime_error("map deadline exceeded") {}
};

/// Per-call context for Mapper::map.
struct MapCall {
  MapTimings* timings = nullptr;
  /// Cooperative deadline: checked between pipeline stages, throws
  /// MapDeadlineExceeded when exceeded.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Degraded mode: skip base-level CIGAR alignment scoring even when
  /// the options request it (chain-derived scores only).
  bool score_only = false;
  /// Reusable DP workspace for every kernel invocation of this call.
  /// nullptr selects the calling thread's shared arena
  /// (detail::KernelArena::for_thread()), so repeated maps on one thread
  /// never re-allocate; service workers pass their own arena explicitly.
  detail::KernelArena* arena = nullptr;
  /// Per-call resident ceiling for direction bytes. Any single kernel
  /// whose dirs footprint (KernelArena::dirs_footprint) exceeds this runs
  /// with diagonal-block dirs streaming (align/dirs_spill.hpp): peak
  /// resident dirs stay within the budget while finished blocks spill to
  /// an in-memory or temp-file sink. 0 keeps the fully resident path.
  u64 dirs_budget_bytes = 0;
  /// Per-call kernel override: the device-offload paths (the service and
  /// gpu_map_reads) route one call's DP segments through the simulated GPU
  /// while the shared Mapper stays CPU-configured. It BYPASSES the
  /// fallback ladder — the callee owns failure recovery and must return
  /// bit-identical results. Non-owning; must outlive the map() call.
  const std::function<AlignResult(const DiffArgs&)>* kernel_override = nullptr;
  /// Band half-width / zdrop overrides for this call; -1 inherits
  /// MapOptions::band / zdrop, 0 forces unbanded, N > 0 forces a static
  /// band. The service degrade ladder uses these to pin narrow bands under
  /// memory pressure without rebuilding the shared Mapper.
  i32 band = -1;
  i32 zdrop = -1;
};

/// Advisory band half-width for an inter-anchor gap fill of dt target x
/// dq query bases too large for the exact kernels (a repeat-masked desert).
/// `pinned` > 0 is the caller's fixed band; otherwise the band is the
/// measured drift |dt - dq| + 16 + ceil(4 * sqrt(0.15 * min(dt, dq))) —
/// four standard deviations of a 15%-indel random walk — capped at 4096.
/// Returns 0 when the band would not pay (2b+1 >= 0.75 * min(dt, dq)):
/// the fill then runs the exact kernel instead. Unlike run_kernel bands,
/// this fill is not rerun on band_hit, so its answer is advisory.
i32 hugegap_band(u64 dt, u64 dq, i32 pinned = 0);

/// Pessimistic upper bound on the resident direction-byte footprint one
/// Mapper::map(read) holds at any instant. Kernels run serially within a
/// call, so this is the worst single kernel: either a capped end
/// extension or a capped inter-anchor gap fill (larger gaps are banded
/// and never hold an O(t*q) dirs area). Used by the service layer for
/// footprint-aware admission. Takes the read length as u64 end-to-end: a
/// pathological multi-GiB read must inflate the estimate (and be rejected
/// at admission), not wrap a u32 and sneak under the memory ladder.
u64 estimate_dirs_bytes(const MapOptions& opt, u64 read_len);

class Mapper {
 public:
  /// Build the index from the reference (kept by reference; must outlive
  /// the mapper).
  Mapper(const Reference& ref, MapOptions opt);
  /// Use a prebuilt/loaded index (it must describe `ref`).
  Mapper(const Reference& ref, MinimizerIndex index, MapOptions opt);

  /// Map one read; mappings sorted best-first. Only the top chain and up
  /// to max_mappings - 1 chains scoring at least 0.8x it are aligned; MAPQ
  /// comes from the two best chain scores. Optionally accumulates stage
  /// timings.
  std::vector<Mapping> map(const Sequence& read, MapTimings* timings = nullptr) const;
  /// Map with a per-call context (deadline, degraded mode, timings).
  std::vector<Mapping> map(const Sequence& read, const MapCall& call) const;

  const Reference& reference() const { return ref_; }
  const MinimizerIndex& index() const { return index_; }
  const MapOptions& options() const { return opt_; }
  u32 max_occ() const { return max_occ_; }

 private:
  const Reference& ref_;
  MinimizerIndex index_;
  MapOptions opt_;
  u32 max_occ_ = 0;
};

}  // namespace manymap
