#include "service/metrics.hpp"

#include <cstdio>

#include "base/stats.hpp"

namespace manymap {

void ServiceMetrics::on_completed(double latency_ms, double compute_ms) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  if (latencies_ms_.size() < kReservoirCapacity) {
    latencies_ms_.push_back(latency_ms);
    compute_ms_.push_back(compute_ms);
  } else {
    latencies_ms_[reservoir_next_] = latency_ms;
    compute_ms_[reservoir_next_] = compute_ms;
    reservoir_next_ = (reservoir_next_ + 1) % kReservoirCapacity;
  }
}

void ServiceMetrics::record_queue_depth(std::size_t depth) {
  queue_depth_last_.store(depth, std::memory_order_relaxed);
  u64 peak = queue_depth_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !queue_depth_peak_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
  }
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.queue_depth_last = queue_depth_last_.load(std::memory_order_relaxed);
  s.queue_depth_peak = queue_depth_peak_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches ? static_cast<double>(s.batched_requests) / static_cast<double>(s.batches) : 0.0;
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.worker_stalls = worker_stalls_.load(std::memory_order_relaxed);
  s.worker_respawns = worker_respawns_.load(std::memory_order_relaxed);
  s.breaker_opened = breaker_opened_.load(std::memory_order_relaxed);
  s.degraded_now = degraded_now_.load(std::memory_order_relaxed);
  s.degraded_responses = degraded_responses_.load(std::memory_order_relaxed);
  s.fallback_scalar = fallback_scalar_.load(std::memory_order_relaxed);
  s.fallback_banded = fallback_banded_.load(std::memory_order_relaxed);
  s.kernel_retries = kernel_retries_.load(std::memory_order_relaxed);
  s.band_fallbacks = band_fallbacks_.load(std::memory_order_relaxed);
  s.verified = verified_.load(std::memory_order_relaxed);
  s.verify_divergences = verify_divergences_.load(std::memory_order_relaxed);
  s.verified_degraded = verified_degraded_.load(std::memory_order_relaxed);
  s.streamed_responses = streamed_responses_.load(std::memory_order_relaxed);
  s.mem_score_only = mem_score_only_.load(std::memory_order_relaxed);
  s.dirs_spilled_bytes = dirs_spilled_bytes_.load(std::memory_order_relaxed);
  s.budget_redirects = budget_redirects_.load(std::memory_order_relaxed);
  s.arena_trims = arena_trims_.load(std::memory_order_relaxed);
  s.index_reloads = index_reloads_.load(std::memory_order_relaxed);
  s.index_reload_failures = index_reload_failures_.load(std::memory_order_relaxed);
  s.warming_rejections = warming_rejections_.load(std::memory_order_relaxed);
  s.index_checksum_bytes_verified =
      index_checksum_bytes_verified_.load(std::memory_order_relaxed);
  s.gpu_offload_batches = gpu_offload_batches_.load(std::memory_order_relaxed);
  s.gpu_cpu_batches = gpu_cpu_batches_.load(std::memory_order_relaxed);
  s.gpu_requests = gpu_requests_.load(std::memory_order_relaxed);
  s.gpu_device_kernels = gpu_device_kernels_.load(std::memory_order_relaxed);
  s.gpu_host_segments = gpu_host_segments_.load(std::memory_order_relaxed);
  s.gpu_staged_bytes = gpu_staged_bytes_.load(std::memory_order_relaxed);
  s.gpu_stage_fallbacks = gpu_stage_fallbacks_.load(std::memory_order_relaxed);
  s.gpu_launch_failures = gpu_launch_failures_.load(std::memory_order_relaxed);
  s.gpu_requeued_batches = gpu_requeued_batches_.load(std::memory_order_relaxed);
  s.gpu_device_seconds = gpu_device_seconds_.load(std::memory_order_relaxed);
  s.gpu_occupancy = gpu_occupancy_.load(std::memory_order_relaxed);
  s.gpu_stream_utilization = gpu_stream_utilization_.load(std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  if (!latencies_ms_.empty()) {
    s.latency_ms_mean = summarize(latencies_ms_).mean;
    // Nearest-rank, not interpolation: early in a run the reservoir holds a
    // handful of samples, and interpolating between two distant order
    // statistics reports a p99 no request ever experienced (with 2 samples
    // the interpolated p99 is a 98%-weighted blend instead of the max).
    s.latency_ms_p50 = percentile_nearest_rank(latencies_ms_, 0.50);
    s.latency_ms_p99 = percentile_nearest_rank(latencies_ms_, 0.99);
    s.compute_ms_mean = summarize(compute_ms_).mean;
  }
  return s;
}

std::string MetricsSnapshot::report() const {
  char buf[2560];
  std::snprintf(buf, sizeof(buf),
                "service metrics\n"
                "  requests   submitted=%llu accepted=%llu completed=%llu "
                "rejected=%llu timed_out=%llu failed=%llu\n"
                "  batching   batches=%llu mean_batch_size=%.2f\n"
                "  ingress    depth_last=%llu depth_peak=%llu\n"
                "  latency_ms mean=%.3f p50=%.3f p99=%.3f (compute mean=%.3f)\n"
                "  robustness stalls=%llu respawns=%llu breaker_opened=%llu "
                "degraded_now=%d degraded_responses=%llu\n"
                "  fallback   scalar=%llu banded=%llu kernel_retries=%llu "
                "band_fallbacks=%llu\n"
                "  memory     streamed=%llu score_only=%llu spilled_bytes=%llu "
                "redirects=%llu arena_trims=%llu\n"
                "  verify     sampled=%llu divergences=%llu degraded=%llu\n",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(timed_out),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(batches), mean_batch_size,
                static_cast<unsigned long long>(queue_depth_last),
                static_cast<unsigned long long>(queue_depth_peak), latency_ms_mean,
                latency_ms_p50, latency_ms_p99, compute_ms_mean,
                static_cast<unsigned long long>(worker_stalls),
                static_cast<unsigned long long>(worker_respawns),
                static_cast<unsigned long long>(breaker_opened), degraded_now ? 1 : 0,
                static_cast<unsigned long long>(degraded_responses),
                static_cast<unsigned long long>(fallback_scalar),
                static_cast<unsigned long long>(fallback_banded),
                static_cast<unsigned long long>(kernel_retries),
                static_cast<unsigned long long>(band_fallbacks),
                static_cast<unsigned long long>(streamed_responses),
                static_cast<unsigned long long>(mem_score_only),
                static_cast<unsigned long long>(dirs_spilled_bytes),
                static_cast<unsigned long long>(budget_redirects),
                static_cast<unsigned long long>(arena_trims),
                static_cast<unsigned long long>(verified),
                static_cast<unsigned long long>(verify_divergences),
                static_cast<unsigned long long>(verified_degraded));
  std::string out = buf;
  if (index_reloads + index_reload_failures + warming_rejections +
          index_checksum_bytes_verified >
      0) {
    std::snprintf(buf, sizeof(buf),
                  "  index      reloads=%llu failures=%llu warming_rejections=%llu "
                  "checksum_bytes=%llu\n",
                  static_cast<unsigned long long>(index_reloads),
                  static_cast<unsigned long long>(index_reload_failures),
                  static_cast<unsigned long long>(warming_rejections),
                  static_cast<unsigned long long>(index_checksum_bytes_verified));
    out += buf;
  }
  if (gpu_offload_batches + gpu_cpu_batches + gpu_requests > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  gpu        offloaded=%llu kept_cpu=%llu requests=%llu "
                  "kernels=%llu host_segments=%llu\n"
                  "  gpu mem    staged_bytes=%llu stage_fallbacks=%llu\n"
                  "  gpu fail   launch_failures=%llu requeued_batches=%llu\n"
                  "  gpu time   device_seconds=%.6f occupancy=%.3f stream_util=%.3f\n",
                  static_cast<unsigned long long>(gpu_offload_batches),
                  static_cast<unsigned long long>(gpu_cpu_batches),
                  static_cast<unsigned long long>(gpu_requests),
                  static_cast<unsigned long long>(gpu_device_kernels),
                  static_cast<unsigned long long>(gpu_host_segments),
                  static_cast<unsigned long long>(gpu_staged_bytes),
                  static_cast<unsigned long long>(gpu_stage_fallbacks),
                  static_cast<unsigned long long>(gpu_launch_failures),
                  static_cast<unsigned long long>(gpu_requeued_batches),
                  gpu_device_seconds, gpu_occupancy, gpu_stream_utilization);
    out += buf;
  }
  return out;
}

}  // namespace manymap
