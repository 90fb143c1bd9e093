// Coalesces individual requests from the ingress queue into compute
// batches. Flush policy (work-conserving): a request is handed off at once
// while some worker waits on an empty shard queue; otherwise the batch
// takes whatever the ingress already holds, up to `max_batch_size`, and is
// handed off without waiting. Under load the ingress refills while a full
// shard queue blocks the hand-off, so batches still grow to
// `max_batch_size`. A positive `max_delay` opts into lingering for fuller
// batches, but only while no worker is idle. Before emission the batch is
// optionally sorted longest-first (the paper's §4.4.4 load balancing:
// slow long reads start early, workers finish together).
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <vector>

#include "pipeline/queue.hpp"
#include "service/request.hpp"

namespace manymap {

/// A request inside the service: the caller's request plus the promise the
/// worker fulfills and the submit timestamp for latency accounting.
struct PendingRequest {
  MapRequest req;
  std::promise<MapResponse> promise;
  std::chrono::steady_clock::time_point enqueued;
};

struct RequestBatch {
  u64 id = 0;
  std::vector<PendingRequest> items;
  /// Estimated peak dirs bytes of the batch (sum of per-request
  /// estimate_dirs_bytes), filled at dispatch for footprint-aware shard
  /// accounting; 0 when no memory budget is configured.
  u64 est_dirs_bytes = 0;
  /// When the scheduler handed the batch off: splits each request's wait
  /// into batch wait (enqueued -> handed_off) and shard wait (-> compute).
  std::chrono::steady_clock::time_point handed_off{};
  /// Set on the remainder of a batch whose device launch failed mid-way:
  /// the re-queued batch must stay on the CPU path, which also makes the
  /// re-queue happen at most once per original batch.
  bool cpu_only = false;

  u64 total_bases() const {
    u64 n = 0;
    for (const auto& p : items) n += p.req.read.size();
    return n;
  }
};

struct BatchPolicy {
  u32 max_batch_size = 16;
  /// Opt-in linger: how long a partial batch may wait for more requests
  /// while no worker is idle (e.g. to feed device offload fuller batches).
  /// 0 hands a batch off as soon as the ingress holds nothing more for it.
  std::chrono::microseconds max_delay{0};
  bool longest_first = true;  ///< §4.4.4 ordering inside each batch
};

class BatchScheduler {
 public:
  BatchScheduler(BoundedQueue<PendingRequest>& ingress, BatchPolicy policy)
      : ingress_(ingress), policy_(policy) {}

  /// Pulls from the ingress queue until it is closed and drained, calling
  /// `emit` for every flushed batch (ids are consecutive from 0). Runs on
  /// the caller's thread; returns the number of batches emitted. `emit`
  /// may block (e.g. on a full shard queue) — that is the backpressure
  /// path that grows the next batch, and eventually fills the ingress
  /// queue and trips admission control. `worker_idle` reports whether
  /// some worker is waiting with nothing queued for it; while it does,
  /// every request is handed off alone (absent: no worker is ever idle).
  u64 run(const std::function<void(RequestBatch&&)>& emit,
          const std::function<bool()>& worker_idle = {});

 private:
  BoundedQueue<PendingRequest>& ingress_;
  BatchPolicy policy_;
};

}  // namespace manymap
