// Lock-cheap metrics registry for the alignment service: monotonic
// counters are plain relaxed atomics touched once per event; only the
// latency reservoirs (needed for p50/p99) take a mutex, and only on
// request completion — never on the submit fast path. The reservoirs are
// bounded ring buffers over the most recent kReservoirCapacity
// completions, so an always-on service holds steady-state memory and
// snapshot cost no matter how long it runs.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "base/common.hpp"

namespace manymap {

/// Point-in-time copy of every metric, with percentiles resolved.
struct MetricsSnapshot {
  u64 submitted = 0;
  u64 accepted = 0;   ///< admitted to the ingress queue
  u64 rejected = 0;   ///< admission control: queue full
  u64 timed_out = 0;  ///< deadline expired before/during compute
  u64 failed = 0;     ///< answered kFailed (worker error or stall)
  u64 completed = 0;  ///< answered kOk
  u64 batches = 0;
  u64 batched_requests = 0;  ///< sum of batch sizes
  u64 queue_depth_last = 0;
  u64 queue_depth_peak = 0;
  double mean_batch_size = 0.0;
  // Latency stats cover the most recent reservoir window, kOk only.
  double latency_ms_mean = 0.0;  ///< submit -> response
  double latency_ms_p50 = 0.0;
  double latency_ms_p99 = 0.0;
  double compute_ms_mean = 0.0;
  // Robustness: watchdog, circuit breaker, fallback ladder, live verify.
  u64 worker_stalls = 0;        ///< watchdog takeovers of a stuck worker
  u64 worker_respawns = 0;      ///< replacement workers spawned
  u64 breaker_opened = 0;       ///< degraded-mode entries
  bool degraded_now = false;    ///< breaker currently open
  u64 degraded_responses = 0;   ///< kOk answers served score-only
  u64 fallback_scalar = 0;      ///< requests answered by the scalar rung
  u64 fallback_banded = 0;      ///< requests answered by the banded-reference rung
  u64 kernel_retries = 0;       ///< failed kernel attempts absorbed by the ladder
  u64 band_fallbacks = 0;       ///< banded kernels rerun unbanded on band_hit
  u64 verified = 0;             ///< live responses replayed through the oracle
  u64 verify_divergences = 0;   ///< oracle disagreements among those
  u64 verified_degraded = 0;    ///< audits of degraded (streamed/score-only) answers
  // Memory-budget ladder (footprint-aware admission + streamed dirs).
  u64 streamed_responses = 0;   ///< kOk answers that streamed dirs to a spill sink
  u64 mem_score_only = 0;       ///< kOk answers shed to score-only by the footprint cap
  u64 dirs_spilled_bytes = 0;   ///< total direction bytes written to spill sinks
  u64 budget_redirects = 0;     ///< batches routed off an over-budget shard
  u64 arena_trims = 0;          ///< idle workers that released DP arena memory
  // Index durability (async load / hot reload; see DESIGN.md).
  u64 index_reloads = 0;          ///< successful index swaps (incl. initial warm load)
  u64 index_reload_failures = 0;  ///< load attempts rejected (corrupt/mismatched/missing)
  u64 warming_rejections = 0;     ///< requests answered kIndexWarming during warm-up
  u64 index_checksum_bytes_verified = 0;  ///< section bytes checksummed across loads
  // Device offload (placement decisions, staging, occupancy); populated
  // only when the service runs with GPU offload enabled.
  u64 gpu_offload_batches = 0;  ///< batches the placement policy sent to the device
  u64 gpu_cpu_batches = 0;      ///< device-eligible batches kept on the CPU path
  u64 gpu_requests = 0;         ///< responses whose DP ran (partly) on device
  u64 gpu_device_kernels = 0;   ///< score-mode kernels launched on the device
  u64 gpu_host_segments = 0;    ///< segments kept host-side (cutoff/path/fallback)
  u64 gpu_staged_bytes = 0;     ///< bytes staged into per-stream host buffers
  u64 gpu_stage_fallbacks = 0;  ///< staging exhaustion -> CPU fallbacks
  u64 gpu_launch_failures = 0;  ///< device launch failures absorbed by fallback
  u64 gpu_requeued_batches = 0; ///< mid-batch failure remainders re-queued to CPU
  double gpu_device_seconds = 0.0;      ///< simulated device busy time
  double gpu_occupancy = 0.0;           ///< peak resident grids / grid capacity
  double gpu_stream_utilization = 0.0;  ///< peak resident grids / host streams

  /// Human-readable multi-line report (the periodic text snapshot).
  std::string report() const;
};

/// Dependency-free mirror of the offload subsystem's counters, pushed into
/// ServiceMetrics by the gpu-capable workers after each batch (gauges, so
/// the last push wins; all values are cumulative on the producer side).
struct GpuMetrics {
  u64 offload_batches = 0;
  u64 cpu_batches = 0;
  u64 device_kernels = 0;
  u64 host_segments = 0;
  u64 staged_bytes = 0;
  u64 stage_fallbacks = 0;
  u64 launch_failures = 0;
  double device_seconds = 0.0;
  double occupancy = 0.0;
  double stream_utilization = 0.0;
};

class ServiceMetrics {
 public:
  /// Latency samples retained for percentiles: a ring buffer of the most
  /// recent completions, bounding memory for an always-on process.
  static constexpr std::size_t kReservoirCapacity = 8192;

  void on_submitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void on_accepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void on_timed_out() { timed_out_.fetch_add(1, std::memory_order_relaxed); }
  void on_failed() { failed_.fetch_add(1, std::memory_order_relaxed); }
  void on_worker_stall() { worker_stalls_.fetch_add(1, std::memory_order_relaxed); }
  void on_worker_respawn() { worker_respawns_.fetch_add(1, std::memory_order_relaxed); }
  void on_degraded_response() { degraded_responses_.fetch_add(1, std::memory_order_relaxed); }
  void set_degraded(bool now_degraded) {
    if (now_degraded) breaker_opened_.fetch_add(1, std::memory_order_relaxed);
    degraded_now_.store(now_degraded, std::memory_order_relaxed);
  }
  /// Fallback accounting for one served request: the kernel ladder's
  /// deepest rung and retries, plus band_hit reruns (from its MapTimings).
  void on_fallback(u32 deepest_rung, u64 retries, u64 band_fallbacks) {
    if (deepest_rung >= 2) fallback_banded_.fetch_add(1, std::memory_order_relaxed);
    else if (deepest_rung == 1) fallback_scalar_.fetch_add(1, std::memory_order_relaxed);
    if (retries) kernel_retries_.fetch_add(retries, std::memory_order_relaxed);
    if (band_fallbacks)
      band_fallbacks_.fetch_add(band_fallbacks, std::memory_order_relaxed);
  }
  void on_verified(bool diverged) {
    verified_.fetch_add(1, std::memory_order_relaxed);
    if (diverged) verify_divergences_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A live audit of a degraded response's mapping (counted alongside
  /// on_verified, so divergences among degraded answers are visible too).
  void on_verified_degraded() { verified_degraded_.fetch_add(1, std::memory_order_relaxed); }
  /// Memory-budget ladder accounting.
  void on_streamed_response(u64 spilled_bytes) {
    streamed_responses_.fetch_add(1, std::memory_order_relaxed);
    if (spilled_bytes) dirs_spilled_bytes_.fetch_add(spilled_bytes, std::memory_order_relaxed);
  }
  void on_mem_score_only() { mem_score_only_.fetch_add(1, std::memory_order_relaxed); }
  void on_budget_redirect() { budget_redirects_.fetch_add(1, std::memory_order_relaxed); }
  void on_arena_trim() { arena_trims_.fetch_add(1, std::memory_order_relaxed); }
  /// Index durability accounting (async warm-up and hot reload).
  void on_index_reload() { index_reloads_.fetch_add(1, std::memory_order_relaxed); }
  void on_index_reload_failure() {
    index_reload_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_warming_rejection() { warming_rejections_.fetch_add(1, std::memory_order_relaxed); }
  void on_index_checksum_bytes(u64 bytes) {
    if (bytes) index_checksum_bytes_verified_.fetch_add(bytes, std::memory_order_relaxed);
  }
  /// Device-offload accounting: per-response and per-requeue events are
  /// service-level counters; the subsystem's cumulative stats arrive as a
  /// gauge snapshot via set_gpu after each gpu-capable batch.
  void on_gpu_request() { gpu_requests_.fetch_add(1, std::memory_order_relaxed); }
  void on_gpu_requeue() { gpu_requeued_batches_.fetch_add(1, std::memory_order_relaxed); }
  void set_gpu(const GpuMetrics& g) {
    gpu_offload_batches_.store(g.offload_batches, std::memory_order_relaxed);
    gpu_cpu_batches_.store(g.cpu_batches, std::memory_order_relaxed);
    gpu_device_kernels_.store(g.device_kernels, std::memory_order_relaxed);
    gpu_host_segments_.store(g.host_segments, std::memory_order_relaxed);
    gpu_staged_bytes_.store(g.staged_bytes, std::memory_order_relaxed);
    gpu_stage_fallbacks_.store(g.stage_fallbacks, std::memory_order_relaxed);
    gpu_launch_failures_.store(g.launch_failures, std::memory_order_relaxed);
    gpu_device_seconds_.store(g.device_seconds, std::memory_order_relaxed);
    gpu_occupancy_.store(g.occupancy, std::memory_order_relaxed);
    gpu_stream_utilization_.store(g.stream_utilization, std::memory_order_relaxed);
  }

  void on_batch(std::size_t batch_size) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(batch_size, std::memory_order_relaxed);
  }

  /// Records a kOk completion with its end-to-end and compute latencies.
  void on_completed(double latency_ms, double compute_ms);

  /// Gauge: ingress depth observed at submit time (last value + peak).
  void record_queue_depth(std::size_t depth);

  MetricsSnapshot snapshot() const;

 private:
  std::atomic<u64> submitted_{0}, accepted_{0}, rejected_{0}, timed_out_{0};
  std::atomic<u64> failed_{0};
  std::atomic<u64> completed_{0};
  std::atomic<u64> worker_stalls_{0}, worker_respawns_{0};
  std::atomic<u64> breaker_opened_{0}, degraded_responses_{0};
  std::atomic<bool> degraded_now_{false};
  std::atomic<u64> fallback_scalar_{0}, fallback_banded_{0}, kernel_retries_{0};
  std::atomic<u64> band_fallbacks_{0};
  std::atomic<u64> verified_{0}, verify_divergences_{0}, verified_degraded_{0};
  std::atomic<u64> streamed_responses_{0}, mem_score_only_{0}, dirs_spilled_bytes_{0};
  std::atomic<u64> budget_redirects_{0}, arena_trims_{0};
  std::atomic<u64> index_reloads_{0}, index_reload_failures_{0};
  std::atomic<u64> warming_rejections_{0}, index_checksum_bytes_verified_{0};
  std::atomic<u64> gpu_offload_batches_{0}, gpu_cpu_batches_{0}, gpu_requests_{0};
  std::atomic<u64> gpu_device_kernels_{0}, gpu_host_segments_{0};
  std::atomic<u64> gpu_staged_bytes_{0}, gpu_stage_fallbacks_{0};
  std::atomic<u64> gpu_launch_failures_{0}, gpu_requeued_batches_{0};
  std::atomic<double> gpu_device_seconds_{0.0}, gpu_occupancy_{0.0};
  std::atomic<double> gpu_stream_utilization_{0.0};
  std::atomic<u64> batches_{0}, batched_requests_{0};
  std::atomic<u64> queue_depth_last_{0}, queue_depth_peak_{0};
  mutable std::mutex mu_;  ///< guards the reservoirs only
  std::vector<double> latencies_ms_;  ///< ring buffer, <= kReservoirCapacity
  std::vector<double> compute_ms_;   ///< parallel ring buffer
  std::size_t reservoir_next_ = 0;   ///< overwrite cursor once full
};

}  // namespace manymap
