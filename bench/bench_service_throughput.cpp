// Service throughput: requests/sec vs worker count, plus the
// device-offload section.
//
// Replays the same 2000-read burst trace (fixed seed) through the
// alignment service kBursts times at each of 1/2/4 workers and reports the
// median with the slowest and fastest burst. Bursts of a few hundred reads
// last 0.1-0.3 s, too short for worker counts to rank above run-to-run
// noise. On multi-core hosts req/s scales with workers; on a single
// hardware thread the table still shows the scheduling overheads staying
// flat. The serial Mapper::map loop is printed first as the zero-overhead
// baseline.
//
// The GPU section replays a long-uniform burst (the shape the placement
// policy is built to accept) through the gpu-enabled service and reports
// placement and occupancy columns next to throughput. Two throughputs are
// compared: the CPU workers' wall-clock req/s on the identical burst, and
// the device-model req/s (requests / simulated device-busy seconds) — the
// interpreter that *executes* device lanes is cycle-accurate and ~25x
// slower than native in wall time, so simulated device seconds are the
// honest device-side number.
//
// `--smoke` runs a small gpu-enabled burst only and exits non-zero when no
// batch was offloaded or any response diverged from the serial mapper —
// CI's cheap guard that the offload path stays wired end to end.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "base/timer.hpp"
#include "bench_util.hpp"
#include "core/paf.hpp"
#include "service/service.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"

namespace manymap {
namespace {

constexpr u32 kBurstReads = 2000;
constexpr int kBursts = 5;

struct Workload {
  Reference ref;
  std::vector<Sequence> reads;
};

Workload make_workload() {
  Workload w;
  GenomeParams gp;
  gp.total_length = 200'000;
  gp.seed = 99;
  w.ref = generate_genome(gp);
  ReadSimParams rp;
  rp.num_reads = kBurstReads;
  rp.seed = 100;
  for (auto& sr : ReadSimulator(w.ref, rp).simulate()) w.reads.push_back(std::move(sr.read));
  return w;
}

/// Long uniform reads: the batch shape the placement policy offloads under
/// its *default* boundaries (mean >= 1 kbp, low length CV). Kept small so
/// the lane-accurate interpreter finishes in seconds.
Workload make_gpu_workload(u32 num_reads, double mean_len, i32 min_len, i32 max_len) {
  Workload w;
  GenomeParams gp;
  gp.total_length = 120'000;
  gp.seed = 199;
  w.ref = generate_genome(gp);
  ReadSimParams rp;
  rp.num_reads = num_reads;
  rp.seed = 200;
  rp.profile.log_mu = std::log(mean_len);
  rp.profile.log_sigma = 0.15;
  rp.profile.min_length = min_len;
  rp.profile.max_length = max_len;
  for (auto& sr : ReadSimulator(w.ref, rp).simulate()) w.reads.push_back(std::move(sr.read));
  return w;
}

struct BurstResult {
  double wall_rps = 0.0;
  u64 on_device = 0;
  MetricsSnapshot snap{};
};

BurstResult run_burst(const Workload& w, const ServiceConfig& cfg) {
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  futures.reserve(w.reads.size());
  WallTimer t;
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  BurstResult out;
  u64 ok = 0;
  for (auto& f : futures) {
    const MapResponse r = f.get();
    ok += r.status == RequestStatus::kOk;
    out.on_device += r.on_device;
  }
  const double seconds = t.seconds();
  svc.shutdown();
  MM_REQUIRE(ok == w.reads.size(), "burst replay must complete every request");
  out.wall_rps = static_cast<double>(ok) / seconds;
  out.snap = svc.metrics().snapshot();
  return out;
}

double run_once(const Workload& w, u32 workers) {
  ServiceConfig cfg;
  cfg.workers_per_shard = workers;
  cfg.ingress_capacity = 256;
  cfg.batch.max_batch_size = 16;
  return run_burst(w, cfg).wall_rps;
}

ServiceConfig gpu_config(u32 workers) {
  ServiceConfig cfg;
  cfg.workers_per_shard = workers;
  cfg.ingress_capacity = 256;
  cfg.batch.max_batch_size = 16;
  cfg.gpu.enabled = true;
  cfg.gpu.batch.num_streams = 8;
  return cfg;
}

/// Starts a JSON row stamped with the host it ran on: hardware threads
/// (service throughput scales with them) and the widest kernel ISA.
bench::JsonRows& host_row(bench::JsonRows& json) {
  return json.row()
      .field("nproc", static_cast<u64>(std::thread::hardware_concurrency()))
      .field("best_isa", to_string(best_isa()));
}

/// CI smoke: a small gpu-enabled burst must actually offload and stay
/// byte-identical to the serial mapper. Returns the process exit code.
int run_smoke() {
  const Workload w = make_gpu_workload(/*num_reads=*/24, /*mean_len=*/500, 300, 800);
  ServiceConfig cfg = gpu_config(/*workers=*/2);
  // Short reads keep the interpreter fast; loosen the length boundary so
  // the batches still offload (the placement default would park them).
  cfg.gpu.batch.min_gpu_cells = 1;
  cfg.gpu.batch.placement.min_mean_read_len = 100;
  const Mapper mapper(w.ref, MapOptions::map_pb());
  AlignmentService svc(w.ref, cfg);
  std::vector<std::future<MapResponse>> futures;
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    MapRequest req;
    req.id = i;
    req.read = w.reads[i];
    futures.push_back(svc.submit_wait(std::move(req)));
  }
  u64 on_device = 0, mismatches = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const MapResponse resp = futures[i].get();
    on_device += resp.on_device;
    if (resp.paf != to_paf_block(mapper.map(w.reads[i]))) ++mismatches;
  }
  svc.shutdown();
  const auto snap = svc.metrics().snapshot();
  std::printf("smoke: offloaded_batches=%llu on_device=%llu/%zu mismatches=%llu\n",
              static_cast<unsigned long long>(snap.gpu_offload_batches),
              static_cast<unsigned long long>(on_device), w.reads.size(),
              static_cast<unsigned long long>(mismatches));
  if (snap.gpu_offload_batches == 0 || on_device == 0) {
    std::fprintf(stderr, "smoke FAILED: no batch reached the device\n");
    return 1;
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "smoke FAILED: device responses diverged from serial mapper\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace manymap

int main(int argc, char** argv) {
  using namespace manymap;
  using namespace manymap::bench;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();

  const Workload w = make_workload();

  print_header("Service throughput (requests/sec, burst replay)");
  print_row("hardware threads: %u (scaling with workers needs > 1), widest ISA %s\n",
            std::thread::hardware_concurrency(), to_string(best_isa()));
  // Serial baseline: the same reads through Mapper::map with no service.
  {
    Mapper mapper(w.ref, MapOptions::map_pb());
    WallTimer t;
    for (const auto& r : w.reads) (void)mapper.map(r);
    print_row("%-24s %10.1f req/s\n", "serial Mapper::map", w.reads.size() / t.seconds());
  }
  JsonRows json("service_throughput");
  print_row("%-10s %12s %12s %12s   (%d bursts of %u reads)\n", "workers", "median req/s",
            "min", "max", kBursts, kBurstReads);
  for (const u32 workers : {1u, 2u, 4u}) {
    std::vector<double> rps;
    for (int b = 0; b < kBursts; ++b) rps.push_back(run_once(w, workers));
    std::sort(rps.begin(), rps.end());
    const double median = rps[rps.size() / 2];
    print_row("%-10u %12.1f %12.1f %12.1f\n", workers, median, rps.front(), rps.back());
    host_row(json)
        .field("mode", "cpu")
        .field("workers", static_cast<u64>(workers))
        .field("burst_reads", static_cast<u64>(kBurstReads))
        .field("bursts", static_cast<u64>(kBursts))
        .field("requests_per_sec", median)
        .field("requests_per_sec_min", rps.front())
        .field("requests_per_sec_max", rps.back());
  }

  // Device offload on long uniform batches, default placement boundaries.
  // device req/s = requests / simulated device-busy seconds (the wall
  // clock of the lane interpreter is not the device's speed).
  print_header("GPU offload (long uniform burst, default placement)");
  print_row("%-8s %-10s %-9s %-11s %-10s %12s %12s\n", "workers", "offloaded", "occup",
            "stream-util", "staged-MB", "dev req/s", "cpu req/s");
  const Workload gw = make_gpu_workload(/*num_reads=*/96, /*mean_len=*/1800, 1200, 2600);
  for (const u32 workers : {2u}) {
    const double cpu_rps = run_once(gw, workers);
    const BurstResult g = run_burst(gw, gpu_config(workers));
    const u64 batches = g.snap.gpu_offload_batches + g.snap.gpu_cpu_batches;
    const double offload_frac =
        batches > 0 ? static_cast<double>(g.snap.gpu_offload_batches) / batches : 0.0;
    const double dev_rps = g.snap.gpu_device_seconds > 0.0
                               ? static_cast<double>(g.on_device) / g.snap.gpu_device_seconds
                               : 0.0;
    print_row("%-8u %7.0f%%  %9.3f %11.3f %10.2f %12.1f %12.1f\n", workers,
              offload_frac * 100.0, g.snap.gpu_occupancy, g.snap.gpu_stream_utilization,
              static_cast<double>(g.snap.gpu_staged_bytes) / (1024.0 * 1024.0), dev_rps,
              cpu_rps);
    host_row(json)
        .field("mode", "gpu")
        .field("workers", static_cast<u64>(workers))
        .field("offload_batches", g.snap.gpu_offload_batches)
        .field("cpu_batches", g.snap.gpu_cpu_batches)
        .field("offload_fraction", offload_frac)
        .field("on_device_requests", g.on_device)
        .field("device_kernels", g.snap.gpu_device_kernels)
        .field("staged_bytes", g.snap.gpu_staged_bytes)
        .field("occupancy", g.snap.gpu_occupancy)
        .field("stream_utilization", g.snap.gpu_stream_utilization)
        .field("device_seconds", g.snap.gpu_device_seconds)
        .field("device_req_per_sec", dev_rps)
        .field("cpu_req_per_sec", cpu_rps);
  }
  json.write("BENCH_service_throughput.json");
  return 0;
}
