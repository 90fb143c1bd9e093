// Metrics registry for the alignment service. Every metric is one row of
// MANYMAP_SERVICE_METRICS below; the MetricsSnapshot fields, the atomic
// storage, snapshot() and report() are all generated from that table, so
// adding a metric means adding one row.
//
// Counters and gauges the service owns are relaxed atomics indexed by
// their row, touched by one atomic op per event; only the latency
// reservoirs (needed for p50/p99) take a mutex, and only on request
// completion — never on the submit fast path. The reservoirs are bounded
// ring buffers over the most recent kReservoirCapacity completions, so an
// always-on service holds steady-state memory and snapshot cost no matter
// how long it runs. Values another component already owns (the circuit
// breaker, the GPU offload subsystem) are read from it when the snapshot
// is taken, never copied into the registry.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "base/common.hpp"

namespace manymap {

class CircuitBreaker;
namespace gpu {
class GpuBatchMapper;
}

/// Where a row's value comes from.
enum class MetricKind : u8 {
  kCounter,   ///< monotonic count: add<>() is one relaxed fetch_add
  kGauge,     ///< latest value: observe<>() is one relaxed store
  kPeak,      ///< high-water mark: observe<>() is one relaxed CAS-max
  kExternal,  ///< owned by the breaker or the GPU subsystem; read at snapshot time
  kDerived,   ///< computed by snapshot() from other rows or the latency reservoir
};

/// Report lines, in report order. The index and gpu lines print only when
/// one of their values is nonzero.
enum class MetricGroup : u8 {
  kRequests, kBatching, kIngress, kLatency, kRobustness,
  kFallback, kMemory, kVerify, kIndex, kGpu,
};

// X(name, type, kind, group, doc): one row per metric, in report order.
// kCounter, kGauge and kPeak rows are u64 (checked in snapshot()).
#define MANYMAP_SERVICE_METRICS(X)                                                           \
  X(submitted, u64, kCounter, kRequests, "requests offered to submit() or submit_wait()")    \
  X(accepted, u64, kCounter, kRequests, "admitted to the ingress queue")                     \
  X(completed, u64, kCounter, kRequests, "answered kOk")                                     \
  X(rejected, u64, kCounter, kRequests, "admission control: ingress full or closed")         \
  X(timed_out, u64, kCounter, kRequests, "deadline expired before or during compute")        \
  X(failed, u64, kCounter, kRequests, "answered kFailed (worker error, stall, oversize)")    \
  X(batches, u64, kCounter, kBatching, "batches popped by workers")                          \
  X(batched_requests, u64, kCounter, kBatching, "sum of batch sizes")                        \
  X(mean_batch_size, double, kDerived, kBatching, "batched_requests / batches")              \
  X(queue_depth_last, u64, kGauge, kIngress, "ingress depth at the latest submit")           \
  X(queue_depth_peak, u64, kPeak, kIngress, "largest ingress depth seen at submit")          \
  X(latency_ms_mean, double, kDerived, kLatency, "submit -> kOk response, reservoir window") \
  X(latency_ms_p50, double, kDerived, kLatency, "nearest-rank p50 of the same window")       \
  X(latency_ms_p99, double, kDerived, kLatency, "nearest-rank p99 of the same window")       \
  X(compute_ms_mean, double, kDerived, kLatency, "compute time of the same window")          \
  X(worker_stalls, u64, kCounter, kRobustness, "watchdog takeovers of a stuck worker")       \
  X(worker_respawns, u64, kCounter, kRobustness, "replacement workers spawned")              \
  X(breaker_opened, u64, kExternal, kRobustness, "degraded-mode entries of the breaker")     \
  X(degraded_now, bool, kExternal, kRobustness, "breaker open and inside its cooldown")      \
  X(degraded_responses, u64, kCounter, kRobustness, "kOk answers served score-only")         \
  X(fallback_scalar, u64, kCounter, kFallback, "requests answered by the scalar rung")       \
  X(fallback_banded, u64, kCounter, kFallback, "requests answered by the banded rung")       \
  X(kernel_retries, u64, kCounter, kFallback, "failed kernel attempts the ladder absorbed")  \
  X(band_fallbacks, u64, kCounter, kFallback, "banded kernels rerun unbanded on band_hit")   \
  X(streamed_responses, u64, kCounter, kMemory, "kOk answers that streamed dirs to a sink")  \
  X(mem_score_only, u64, kCounter, kMemory, "kOk answers shed to score-only by the cap")     \
  X(dirs_spilled_bytes, u64, kCounter, kMemory, "direction bytes written to spill sinks")    \
  X(budget_redirects, u64, kCounter, kMemory, "batches routed off an over-budget shard")     \
  X(arena_trims, u64, kCounter, kMemory, "idle workers that released DP arena memory")       \
  X(verified, u64, kCounter, kVerify, "live mappings replayed through the oracle")           \
  X(verify_divergences, u64, kCounter, kVerify, "oracle disagreements among those")          \
  X(verified_degraded, u64, kCounter, kVerify, "audits of streamed or score-only answers")   \
  X(index_reloads, u64, kCounter, kIndex, "index swaps, including the initial warm load")    \
  X(index_reload_failures, u64, kCounter, kIndex, "loads rejected: corrupt, wrong, missing") \
  X(warming_rejections, u64, kCounter, kIndex, "requests answered kIndexWarming")            \
  X(index_checksum_bytes_verified, u64, kCounter, kIndex, "section bytes checksummed")       \
  X(gpu_offload_batches, u64, kExternal, kGpu, "batches placement sent to the device")       \
  X(gpu_cpu_batches, u64, kExternal, kGpu, "device-eligible batches kept on the CPU")        \
  X(gpu_requests, u64, kCounter, kGpu, "responses whose DP ran (partly) on the device")      \
  X(gpu_device_kernels, u64, kExternal, kGpu, "score-mode kernels launched on the device")    \
  X(gpu_host_segments, u64, kExternal, kGpu, "host kernel runs: cutoff, path, fallback")     \
  X(gpu_staged_bytes, u64, kExternal, kGpu, "bytes staged into per-stream host buffers")     \
  X(gpu_stage_fallbacks, u64, kExternal, kGpu, "staging exhaustion -> CPU fallbacks")        \
  X(gpu_launch_failures, u64, kExternal, kGpu, "device launch failures absorbed on the CPU") \
  X(gpu_requeued_batches, u64, kCounter, kGpu, "mid-batch failure remainders re-queued")     \
  X(gpu_device_seconds, double, kExternal, kGpu, "simulated device busy time")               \
  X(gpu_occupancy, double, kExternal, kGpu, "peak resident grids / grid capacity")           \
  X(gpu_stream_utilization, double, kExternal, kGpu, "peak resident grids / host streams")

/// A row's index: the compile-time handle call sites bump.
enum class Metric : u32 {
#define MM_METRIC_ENUM(name, type, kind, group, doc) name,
  MANYMAP_SERVICE_METRICS(MM_METRIC_ENUM)
#undef MM_METRIC_ENUM
};

inline constexpr MetricKind kMetricKinds[] = {
#define MM_METRIC_KIND(name, type, kind, group, doc) MetricKind::kind,
    MANYMAP_SERVICE_METRICS(MM_METRIC_KIND)
#undef MM_METRIC_KIND
};

constexpr MetricKind kind_of(Metric m) { return kMetricKinds[static_cast<u32>(m)]; }

/// Point-in-time copy of every metric, with percentiles resolved. Latency
/// rows cover the most recent reservoir window, kOk responses only.
struct MetricsSnapshot {
#define MM_METRIC_FIELD(name, type, kind, group, doc) type name{};
  MANYMAP_SERVICE_METRICS(MM_METRIC_FIELD)
#undef MM_METRIC_FIELD

  /// Human-readable multi-line report (the periodic text snapshot): one
  /// line per group of `name=value` tokens.
  std::string report() const;
};

class ServiceMetrics {
 public:
  /// Latency samples retained for percentiles: a ring buffer of the most
  /// recent completions, bounding memory for an always-on process.
  static constexpr std::size_t kReservoirCapacity = 8192;

  /// `breaker` and `gpu` own the kExternal rows; either may be null (its
  /// rows then read 0). Both must outlive this registry.
  explicit ServiceMetrics(const CircuitBreaker* breaker = nullptr,
                          const gpu::GpuBatchMapper* gpu = nullptr)
      : breaker_(breaker), gpu_(gpu) {}

  /// Counts `n` events on counter row `m`.
  template <Metric m>
  void add(u64 n = 1) {
    static_assert(kind_of(m) == MetricKind::kCounter, "add() takes a kCounter row");
    if (n != 0) cells_[static_cast<u32>(m)].fetch_add(n, std::memory_order_relaxed);
  }

  /// Records `v` on gauge row `m`: kGauge keeps the latest value, kPeak
  /// the largest.
  template <Metric m>
  void observe(u64 v) {
    static_assert(kind_of(m) == MetricKind::kGauge || kind_of(m) == MetricKind::kPeak,
                  "observe() takes a kGauge or kPeak row");
    std::atomic<u64>& cell = cells_[static_cast<u32>(m)];
    if constexpr (kind_of(m) == MetricKind::kGauge) {
      cell.store(v, std::memory_order_relaxed);
    } else {
      u64 peak = cell.load(std::memory_order_relaxed);
      while (v > peak && !cell.compare_exchange_weak(peak, v, std::memory_order_relaxed)) {
      }
    }
  }

  /// Records a kOk completion: counts it and samples its end-to-end and
  /// compute latencies into the reservoir.
  void on_completed(double latency_ms, double compute_ms);

  MetricsSnapshot snapshot() const;

 private:
  std::array<std::atomic<u64>, std::size(kMetricKinds)> cells_{};  ///< by Metric index
  const CircuitBreaker* breaker_;
  const gpu::GpuBatchMapper* gpu_;
  mutable std::mutex mu_;  ///< guards the reservoirs only
  std::vector<double> latencies_ms_;  ///< ring buffer, <= kReservoirCapacity
  std::vector<double> compute_ms_;   ///< parallel ring buffer
  std::size_t reservoir_next_ = 0;   ///< overwrite cursor once full
};

}  // namespace manymap
