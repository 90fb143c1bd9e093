// CPU-vs-device placement policy for whole scheduler batches (§4.5): a
// kernel launch plus host staging only pays off when the batch carries
// enough long, similarly-sized reads to fill the device's resident grids.
// The policy reads nothing but the batch's read-length distribution and
// applies documented decision boundaries, in order:
//   1. an empty batch stays on the CPU;
//   2. fewer than `min_reads` reads stays on the CPU (launch overhead);
//   3. mean read length below `min_mean_read_len` stays on the CPU
//      (short-read batches underfill the anti-diagonal lanes);
//   4. a length coefficient of variation (stddev/mean) above
//      `max_length_cv` stays on the CPU (skewed batches serialize on the
//      longest read while short lanes idle);
//   5. everything else — long, uniform batches — offloads.
// Property tests in tests/test_gpu_offload.cpp pin these boundaries.
//
// A banded batch (band_hint > 0, the mapper's MapOptions::band)
// relaxes rules 3 and 4: device work per segment is O((2b+1) * diagonals)
// rather than O(|T| * |Q|), so shorter reads already saturate the band's
// anti-diagonal lanes and length skew only costs linearly (the longest
// read no longer dominates quadratically). Banded batches therefore
// offload earlier. When the hint does not actually narrow the mean read
// (2 * band + 1 >= mean length) the unbanded boundaries apply unchanged.
#pragma once

#include <vector>

#include "base/common.hpp"

namespace manymap {
namespace gpu {

struct PlacementPolicy {
  u32 min_reads = 4;
  u32 min_mean_read_len = 1000;
  /// Lognormal-ish long-read traces (PacBio/ONT simulations here) run a
  /// per-batch CV around 0.4-0.7; the default only rejects genuinely
  /// bimodal mixtures (e.g. amplicon spike-ins next to 20kb reads).
  double max_length_cv = 0.75;
  /// Banded relaxations (only applied when a band hint narrows the mean
  /// read): the mean-length floor shrinks by this factor ...
  double banded_min_len_factor = 0.5;
  /// ... and the CV ceiling stretches by this factor.
  double banded_cv_headroom = 1.5;
};

enum class PlacementReason {
  kOffload,        ///< long uniform batch: routed to the device
  kEmptyBatch,     ///< nothing to align
  kSmallBatch,     ///< fewer than policy.min_reads reads
  kShortReads,     ///< mean length below policy.min_mean_read_len
  kSkewedLengths,  ///< length CV above policy.max_length_cv
};

const char* to_string(PlacementReason r);

struct PlacementDecision {
  bool offload = false;
  PlacementReason reason = PlacementReason::kEmptyBatch;
  u64 total_bases = 0;
  double mean_len = 0.0;
  double length_cv = 0.0;  ///< population stddev / mean (0 when mean is 0)
  bool banded = false;     ///< banded boundaries were in effect
  /// Estimated device DP cells for the batch: per read len * min(len,
  /// 2*band+1) when banded, len^2 otherwise — the same banded-cell model
  /// GpuBatchMapper uses per segment, aggregated for capacity planning.
  u64 est_cells = 0;
};

/// Decide placement for one batch from its read lengths. Pure function of
/// (lengths, policy, band_hint); the boundaries are exactly the ordered
/// rules above. `band_hint` is the kernel band half-width the mapper will
/// run with (0 = unbanded).
PlacementDecision decide_placement(const std::vector<u32>& read_lengths,
                                   const PlacementPolicy& policy, i32 band_hint);
inline PlacementDecision decide_placement(const std::vector<u32>& read_lengths,
                                          const PlacementPolicy& policy) {
  return decide_placement(read_lengths, policy, 0);
}

}  // namespace gpu
}  // namespace manymap
