#include "service/metrics.hpp"

#include <chrono>
#include <cstdio>
#include <type_traits>

#include "base/stats.hpp"
#include "gpu/batch_mapper.hpp"
#include "service/breaker.hpp"

namespace manymap {

namespace {

/// Report line labels, indexed by MetricGroup.
constexpr const char* kGroupNames[] = {"requests", "batching", "ingress",  "latency", "robustness",
                                       "fallback", "memory",   "verify",   "index",   "gpu"};
static_assert(std::size(kGroupNames) == static_cast<std::size_t>(MetricGroup::kGpu) + 1);

/// Report lines wrap before this column.
constexpr std::size_t kReportWidth = 100;

constexpr bool stored(MetricKind k) {
  return k == MetricKind::kCounter || k == MetricKind::kGauge || k == MetricKind::kPeak;
}

template <MetricKind kind, typename T>
void load_row(T& field, const std::atomic<u64>& cell) {
  static_assert(!stored(kind) || std::is_same_v<T, u64>, "stored rows are u64");
  if constexpr (stored(kind)) field = cell.load(std::memory_order_relaxed);
}

std::string format_value(u64 v) { return std::to_string(v); }
std::string format_value(bool v) { return v ? "1" : "0"; }
std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void ServiceMetrics::on_completed(double latency_ms, double compute_ms) {
  add<Metric::completed>();
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

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
#define MM_METRIC_LOAD(name, type, kind, group, doc) \
  load_row<MetricKind::kind>(s.name, cells_[static_cast<u32>(Metric::name)]);
  MANYMAP_SERVICE_METRICS(MM_METRIC_LOAD)
#undef MM_METRIC_LOAD
  s.mean_batch_size =
      s.batches ? static_cast<double>(s.batched_requests) / static_cast<double>(s.batches) : 0.0;
  if (breaker_ != nullptr) {
    s.breaker_opened = breaker_->times_opened();
    s.degraded_now = breaker_->open_at(std::chrono::steady_clock::now());
  }
  if (gpu_ != nullptr) {
    const gpu::GpuBatchStats g = gpu_->stats();
    s.gpu_offload_batches = g.offload_batches;
    s.gpu_cpu_batches = g.cpu_batches;
    s.gpu_device_kernels = g.device_kernels;
    s.gpu_host_segments = g.host_segments;
    s.gpu_staged_bytes = g.staged_bytes;
    s.gpu_stage_fallbacks = g.stage_fallbacks;
    s.gpu_launch_failures = g.launch_failures;
    s.gpu_device_seconds = g.occupancy.device_seconds;
    s.gpu_occupancy = g.occupancy.occupancy();
    s.gpu_stream_utilization = g.occupancy.stream_utilization();
  }
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
  std::string out = "service metrics\n";
  for (std::size_t g = 0; g < std::size(kGroupNames); ++g) {
    const auto line_group = static_cast<MetricGroup>(g);
    std::vector<std::string> tokens;
    bool nonzero = false;
#define MM_METRIC_TOKEN(name, type, kind, group, doc)      \
  if (MetricGroup::group == line_group) {                  \
    tokens.push_back(#name "=" + format_value(name));      \
    nonzero = nonzero || name != type{};                   \
  }
    MANYMAP_SERVICE_METRICS(MM_METRIC_TOKEN)
#undef MM_METRIC_TOKEN
    if (!nonzero && (line_group == MetricGroup::kIndex || line_group == MetricGroup::kGpu))
      continue;
    std::string line = "  " + std::string(kGroupNames[g]);
    line.resize(13, ' ');
    const std::size_t indent = line.size();
    for (const std::string& tok : tokens) {
      if (line.size() > indent && line.size() + 1 + tok.size() > kReportWidth) {
        out += line + "\n";
        line.assign(indent, ' ');
      } else if (line.size() > indent) {
        line += ' ';
      }
      line += tok;
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace manymap
