// Service workload: reads served by AlignmentService with nproc - 1 workers
// and an index loaded from an MMMI file saved while the inputs were made.
//   setup_s     service start -> wait_until_ready() (checksummed load).
//   open loop   Poisson arrivals at a fixed rate from one generator thread
//               using non-blocking submit(); latency runs from each
//               request's due time, so generator stalls are charged to it.
//   burst       submit_wait() back to back: saturation throughput.
//   --trace 1   the open loop (service.* metrics), then the serial layer
//               passes on the same reads.
// Responses are scored and dropped as they arrive, so memory does not grow
// with the run length.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <limits>
#include <optional>
#include <thread>

#include "core/paf.hpp"
#include "index/index_io.hpp"
#include "service/service.hpp"

#include "bench.hpp"

namespace manymap::perfbench {

namespace {

/// Open-loop arrival rate: about a sixth of the burst capacity of three
/// workers on a 4-vCPU x86 host. At a third of capacity (1000 req/s) the
/// p99 spread between seeds reached 0.27-0.40 there, as queueing amplified
/// host noise; at this rate it was 0.03.
constexpr double kOpenLoopRate = 500.0;
/// A generator whose p99 lateness exceeds this fell behind its schedule:
/// the offered load was no longer the stated rate, so the run fails.
constexpr double kGeneratorBehindMs = 20.0;
/// Every Nth response is checked against the serial Mapper::map answer.
constexpr u64 kVerifyEvery = 64;
constexpr std::size_t kWarmupReads = 8;

struct Sent {
  std::future<MapResponse> response;
  Clock::time_point due;
  Clock::time_point sent;
  u64 id = 0;
};

/// Holds the outstanding futures in submission order. The generator
/// drains answered ones between sends (poll) and waits for the rest at
/// the end (finish): no extra thread competes with the service for CPU.
class Collector {
 public:
  explicit Collector(const Inputs& in) : in_(in) {}

  void push(Sent s) { pending_.push_back(std::move(s)); }
  /// Collects answered responses at the front until `until` or the first
  /// unanswered one, without blocking.
  void poll(Clock::time_point until) {
    while (!pending_.empty() && Clock::now() < until &&
           pending_.front().response.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready)
      take_front();
  }
  /// Waits for every outstanding response.
  void finish() {
    while (!pending_.empty()) take_front();
  }

  // Complete after finish().
  u64 attempted = 0, ok = 0;
  AccuracyReport acc;
  std::vector<double> latency_ms;  ///< due -> answered; +inf when not kOk
  std::vector<double> queue_ms, compute_ms;
  std::vector<std::pair<u64, std::string>> samples;  ///< (id, PAF) to verify
  Clock::time_point last_answer{};

 private:
  void take_front() {
    Sent s = std::move(pending_.front());
    pending_.pop_front();
    const MapResponse r = s.response.get();
    last_answer = Clock::now();
    ++attempted;
    if (r.status != RequestStatus::kOk) {
      latency_ms.push_back(std::numeric_limits<double>::infinity());
      return;
    }
    ++ok;
    // Answered when its compute ended: the worker resolves the promise
    // right after Mapper::map and PAF rendering (both in compute_ms).
    latency_ms.push_back(seconds_between(s.due, s.sent) * 1e3 + r.queue_ms + r.compute_ms);
    queue_ms.push_back(r.queue_ms);
    compute_ms.push_back(r.compute_ms);
    tally_accuracy(acc, r.mappings, in_.reads[s.id % in_.reads.size()].truth);
    if (s.id % kVerifyEvery == 0) samples.emplace_back(s.id, r.paf);
  }

  const Inputs& in_;
  std::deque<Sent> pending_;
};

MapRequest request_for(const Inputs& in, u64 id) {
  MapRequest req;
  req.id = id;
  req.read = in.reads[id % in.reads.size()].read;
  return req;
}

struct OpenLoop {
  std::vector<double> late_ms;  ///< how late the generator submitted each request
  u64 next_id = 0;
};

/// Poisson arrivals at `rate` for `duration_s`; ids start at `first_id`.
OpenLoop run_open_loop(AlignmentService& svc, const Inputs& in, Collector& col,
                       double duration_s, u64 seed, u64 first_id) {
  Rng rng(seed);
  OpenLoop out;
  const auto t0 = Clock::now();
  double at = 0.0;
  u64 id = first_id;
  for (;; ++id) {
    at += -std::log(1.0 - rng.uniform01()) / kOpenLoopRate;
    if (at >= duration_s) break;
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(at));
    col.poll(due);
    std::this_thread::sleep_until(due);
    MapRequest req = request_for(in, id);
    const auto sent = Clock::now();
    col.push({svc.submit(std::move(req)), due, sent, id});
    out.late_ms.push_back(seconds_between(due, sent) * 1e3);
  }
  out.next_id = id;
  return out;
}

/// Returns the number of requests issued; ids start at `first_id`.
u64 run_burst(AlignmentService& svc, const Inputs& in, Collector& col, double duration_s,
              u64 first_id) {
  const auto t0 = Clock::now();
  u64 id = first_id;
  for (auto now = t0; seconds_between(t0, now) < duration_s; now = Clock::now(), ++id) {
    col.push({svc.submit_wait(request_for(in, id)), now, now, id});
    col.poll(Clock::time_point::max());
  }
  return id - first_id;
}

/// Service PAF must be byte-identical to serial Mapper::map on the same read.
void verify_samples(const Collector& col, const Mapper& serial, const Inputs& in,
                    Result& out) {
  u64 mismatches = 0;
  for (const auto& [id, paf] : col.samples)
    mismatches += to_paf_block(serial.map(in.reads[id % in.reads.size()].read)) != paf;
  out.check(mismatches == 0, "service PAF differs from serial Mapper::map on " +
                                 std::to_string(mismatches) + " of " +
                                 std::to_string(col.samples.size()) + " sampled reads");
  std::printf("service vs serial: %zu sampled responses compared, %llu mismatches\n",
              col.samples.size(), static_cast<unsigned long long>(mismatches));
}

}  // namespace

void add_service_metrics(Result& out, const ServiceLayer& s) {
  out.add("service.queue_ms_p50", s.queue_ms_p50, "ms");
  out.add("service.queue_ms_p99", s.queue_ms_p99, "ms");
  out.add("service.compute_ms_p50", s.compute_ms_p50, "ms");
  out.add("service.compute_ms_p99", s.compute_ms_p99, "ms");
  out.add("service.mean_batch_size", s.mean_batch_size, "count");
  out.add("service.ingress_depth_peak", s.ingress_depth_peak, "count");
  out.add("service.generator_late_ms_p99", s.generator_late_ms_p99, "ms");
}

void run_service(const Args& args, const WorkloadSpec& spec, Result& out) {
  const Inputs in = make_inputs(spec, args.seed);
  std::printf("inputs: %s, genome %llu bp, %zu distinct reads\n", spec.name.c_str(),
              static_cast<unsigned long long>(in.ref.total_length()), in.reads.size());

  // Untimed preparation: build and save the index the service will load,
  // and keep the built one for the serial reference answers.
  const std::string index_path =
      (std::filesystem::path(args.workdir) / "service_index.mmi").string();
  std::optional<Mapper> serial;
  {
    MinimizerIndex index = MinimizerIndex::build(in.ref, spec.map.sketch);
    save_index(index_path, index);
    serial.emplace(in.ref, std::move(index), spec.map);
  }

  ServiceConfig cfg;
  cfg.map = spec.map;
  cfg.workers_per_shard = std::max(2u, std::thread::hardware_concurrency()) - 1;
  cfg.ingress_capacity = 256;
  cfg.index.load_path = index_path;
  cfg.index.verify_checksums = true;
  std::printf("service: %u workers, batch <= %u, delay %lld us, open-loop rate %.0f req/s\n",
              cfg.workers_per_shard, cfg.batch.max_batch_size,
              static_cast<long long>(cfg.batch.max_delay.count()), kOpenLoopRate);

  std::vector<double> setups;
  std::unique_ptr<AlignmentService> svc;
  while (!setup_done(setups)) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<AlignmentService>(in.ref, cfg);
    const bool ready = svc->wait_until_ready(std::chrono::milliseconds(60'000));
    setups.push_back(seconds_between(t0, Clock::now()));
    out.check(ready, "service index became ready");
    if (!ready) return;
  }
  std::filesystem::remove(index_path);
  for (std::size_t i = 0; i < kWarmupReads; ++i) (void)svc->map_sync(request_for(in, i));

  // Phase 1: open loop (its own collector, so its latencies stand alone).
  const double open_s = args.seconds * (args.trace ? 0.4 : 0.6);
  const MetricsSnapshot before = svc->metrics().snapshot();
  Collector open_col(in);
  OpenLoop open = run_open_loop(*svc, in, open_col, open_s, args.seed ^ 0x5eed, 0);
  open_col.finish();
  const MetricsSnapshot after = svc->metrics().snapshot();

  ServiceLayer layer;
  layer.queue_ms_p50 = percentile(open_col.queue_ms, 0.50);
  layer.queue_ms_p99 = percentile(open_col.queue_ms, 0.99);
  layer.compute_ms_p50 = percentile(open_col.compute_ms, 0.50);
  layer.compute_ms_p99 = percentile(open_col.compute_ms, 0.99);
  const u64 batches = after.batches - before.batches;
  layer.mean_batch_size =
      batches == 0 ? 0.0
                   : static_cast<double>(after.batched_requests - before.batched_requests) /
                         static_cast<double>(batches);
  layer.ingress_depth_peak = static_cast<double>(after.queue_depth_peak);
  layer.generator_late_ms_p99 = percentile(open.late_ms, 0.99);
  std::printf("open loop: %llu requests in %.2f s; queue p50/p99 %.2f/%.2f ms, compute "
              "p50/p99 %.2f/%.2f ms, mean batch %.2f, generator late p50/p99 %.3f/%.3f ms\n",
              static_cast<unsigned long long>(open_col.attempted), open_s, layer.queue_ms_p50,
              layer.queue_ms_p99, layer.compute_ms_p50, layer.compute_ms_p99,
              layer.mean_batch_size, percentile(open.late_ms, 0.5), layer.generator_late_ms_p99);
  out.check(layer.generator_late_ms_p99 <= kGeneratorBehindMs,
            "open-loop generator kept its schedule (p99 late " +
                std::to_string(layer.generator_late_ms_p99) + " ms)");

  if (args.trace) {
    svc->shutdown();
    verify_samples(open_col, *serial, in, out);
    out.attempted = open_col.attempted;
    out.failed = open_col.attempted - open_col.ok;
    run_layer_passes(*serial, in.reads, args.seconds * 0.6, args.workdir, out);
    add_service_metrics(out, layer);
    return;
  }

  // Phase 2: burst, for saturation throughput.
  Collector burst_col(in);
  const auto burst_t0 = Clock::now();
  const u64 burst_n =
      run_burst(*svc, in, burst_col, args.seconds - open_s, open.next_id);
  burst_col.finish();
  const double burst_s = seconds_between(burst_t0, burst_col.last_answer);
  svc->shutdown();
  const double rss = peak_rss_mib();
  std::printf("burst: %llu requests in %.2f s\n", static_cast<unsigned long long>(burst_n),
              burst_s);

  verify_samples(open_col, *serial, in, out);
  verify_samples(burst_col, *serial, in, out);

  out.attempted = open_col.attempted + burst_col.attempted;
  out.failed = out.attempted - open_col.ok - burst_col.ok;
  AccuracyReport acc = open_col.acc;
  acc.total_reads += burst_col.acc.total_reads;
  acc.aligned_reads += burst_col.acc.aligned_reads;
  acc.correct_reads += burst_col.acc.correct_reads;

  out.add("setup_s", median(setups), "s");
  out.add("reads_per_s", static_cast<double>(burst_col.ok) / burst_s, "reads/s");
  std::printf("latency: %zu open-loop requests\n", open_col.latency_ms.size());
  add_latency_metrics(out, open_col.latency_ms);
  add_accuracy_metrics(out, acc);
  out.add("ok_frac", static_cast<double>(out.attempted - out.failed) / out.attempted,
          "fraction");
  out.add("peak_rss_mb", rss, "MiB");
}

}  // namespace manymap::perfbench
