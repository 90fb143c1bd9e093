// Pinned-style host staging for device offload (§4.5.2): each device
// stream owns a fixed partition of one preallocated host buffer and reads
// are bump-copied into it before their kernels launch, so the transfer
// path never allocates per kernel and a stream's staging is released in
// one reset once its last live reservation is released. Offsets come
// from simt::MemoryPool (the same per-stream bump discipline the device
// side uses); exhaustion
// of a partition is a native failure path — the caller falls back to the
// CPU kernel for that segment. The "gpu.stage_oom" fault site forces that
// failure deterministically for chaos testing.
#pragma once

#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "base/common.hpp"
#include "simt/memory_pool.hpp"

namespace manymap {
namespace gpu {

class StagingArea {
 public:
  StagingArea(u64 total_bytes, u32 num_streams);

  /// One staged byte range inside a stream's partition.
  struct Slot {
    u32 stream = 0;
    u64 offset = 0;  ///< pool offset (also the index into the host buffer)
    u64 bytes = 0;
    const u8* host = nullptr;  ///< staged copy, valid until release(stream)
  };

  /// Copy `bytes` of `data` into `stream`'s partition. nullopt when the
  /// partition is exhausted or the "gpu.stage_oom" fault fires; the
  /// partition is left untouched in both cases.
  std::optional<Slot> stage(u32 stream, const u8* data, u64 bytes);

  /// Stage a segment's two slices (target, query) all or nothing: both are
  /// reserved in one allocation under the lock, and nothing is copied or
  /// counted unless both fit. A failed attempt is one stage_failures()
  /// count and one "gpu.stage_oom" check, as for stage().
  std::optional<std::pair<Slot, Slot>> stage_pair(u32 stream, const u8* first,
                                                  u64 first_bytes, const u8* second,
                                                  u64 second_bytes);

  /// Release one reservation made by a successful stage() / stage_pair()
  /// on `stream`. The partition resets once its last live reservation is
  /// released, so callers that share a stream never lose slices a peer's
  /// kernel still reads.
  void release(u32 stream);

  u32 num_streams() const { return pool_.num_streams(); }
  u64 per_stream_capacity() const { return pool_.per_stream_capacity(); }
  u64 bytes_in_use(u32 stream) const;

  u64 staged_bytes() const;     ///< lifetime bytes successfully staged
  u64 stage_failures() const;   ///< exhaustion + injected OOM events

 private:
  mutable std::mutex mu_;  ///< MemoryPool counters are not thread-safe
  std::vector<u8> buffer_; ///< the pinned-style host allocation
  simt::MemoryPool pool_;
  std::vector<u32> live_;  ///< live reservations per stream
  u64 staged_bytes_ = 0;
  u64 stage_failures_ = 0;
};

}  // namespace gpu
}  // namespace manymap
