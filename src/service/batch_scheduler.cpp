#include "service/batch_scheduler.hpp"

#include <algorithm>

namespace manymap {

namespace {

/// While lingering, how often the scheduler re-asks whether a worker went
/// idle (the worker waits on its shard queue, not on the ingress).
constexpr std::chrono::microseconds kIdlePoll{100};

}  // namespace

u64 BatchScheduler::run(const std::function<void(RequestBatch&&)>& emit,
                        const std::function<bool()>& worker_idle) {
  using clock = std::chrono::steady_clock;
  const auto idle = [&] { return worker_idle && worker_idle(); };
  u64 emitted = 0;
  for (;;) {
    std::optional<PendingRequest> item = ingress_.pop();  // nothing held: block freely
    if (!item) break;                                     // closed and drained
    RequestBatch batch;
    batch.items.push_back(std::move(*item));
    const auto linger_until = clock::now() + policy_.max_delay;
    // Grow the batch only while no worker waits for it: from what the
    // ingress already holds, then (opt-in) by lingering for arrivals.
    while (batch.items.size() < policy_.max_batch_size && !idle()) {
      item = ingress_.try_pop();
      if (!item) {
        const auto now = clock::now();
        if (now >= linger_until) break;
        item = ingress_.pop_for(std::min<clock::duration>(linger_until - now, kIdlePoll));
        if (!item) {
          if (ingress_.closed()) break;  // drained for good: flush now
          continue;
        }
      }
      batch.items.push_back(std::move(*item));
    }
    if (policy_.longest_first) {
      // Stable: equal-length reads keep arrival order, so batch contents
      // are a deterministic function of the request stream.
      std::stable_sort(batch.items.begin(), batch.items.end(),
                       [](const PendingRequest& a, const PendingRequest& b) {
                         return a.req.read.size() > b.req.read.size();
                       });
    }
    batch.id = emitted++;
    batch.handed_off = clock::now();
    emit(std::move(batch));
  }
  return emitted;
}

}  // namespace manymap
