// GPU base-level alignment kernels on the SIMT block interpreter, in both
// published forms:
//   Fig. 4a (minimap2 form):  if (tid == 0) { xt = tmp; tmp = X[chunk_end]; }
//                             else xt = X[t-1];  __syncthreads();
//     -> a divergent branch plus two barriers per chunk per diagonal.
//   Fig. 4b (manymap form):   xt = X[t - r + qlen];
//     -> uniform loads; one barrier per diagonal.
// The interpreter executes the lane lambdas, so scores/CIGARs are bit-
// exact with the CPU kernels (asserted by tests), while cost counters
// expose the divergence/synchronization gap the paper exploits.
#pragma once

#include "align/kernel_api.hpp"
#include "simt/block.hpp"

namespace manymap {
namespace simt {

struct GpuAlignResult {
  AlignResult result;
  KernelCost cost;
  bool used_shared = false;  ///< DP arrays fit in shared memory
};

/// Run one pair alignment as a single-block kernel with `threads` lanes.
GpuAlignResult gpu_align(const DiffArgs& args, Layout layout, const DeviceSpec& spec,
                         u32 threads);

/// Memory a kernel needs for this problem (drives shared/global placement
/// and stream concurrency).
u64 gpu_kernel_global_bytes(i32 tlen, i32 qlen, bool with_cigar);

/// Analytic cost of gpu_align for the same problem, without executing the
/// lanes — exact cycle/sync/divergence counts (asserted equal to the
/// interpreter by tests). Used by the benches for large workloads.
KernelCost gpu_align_cost(i32 tlen, i32 qlen, Layout layout, const DeviceSpec& spec,
                          u32 threads, bool with_cigar, BlockCostModel model = {});

}  // namespace simt
}  // namespace manymap
