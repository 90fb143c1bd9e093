// Serial workloads: one closed-loop caller of Mapper::map on one thread.
//   --trace 0  setup_s = Mapper construction (MinimizerIndex::build), then
//              two timed rounds mapping the same reads back to back.
//   --trace 1  the untraced and traced layer passes (layers.cpp).
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"

namespace manymap::perfbench {

namespace {

constexpr std::size_t kWarmupReads = 8;
/// p99 then has at least ten samples beyond it.
constexpr u64 kMinTimedReads = 1000;

}  // namespace

void run_serial(const Args& args, const WorkloadSpec& spec, Result& out) {
  const Inputs in = make_inputs(spec, args.seed);
  std::printf("inputs: %s, genome %llu bp, %zu distinct reads\n", spec.name.c_str(),
              static_cast<unsigned long long>(in.ref.total_length()), in.reads.size());

  std::vector<double> setups;
  std::optional<Mapper> mapper;
  while (!setup_done(setups)) {
    mapper.reset();
    const auto t0 = Clock::now();
    mapper.emplace(in.ref, spec.map);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  std::printf("index: %zu entries, occurrence cutoff %u\n", mapper->index().num_entries(),
              mapper->max_occ());
  for (std::size_t i = 0; i < kWarmupReads && i < in.reads.size(); ++i)
    (void)mapper->map(in.reads[i].read);

  if (args.trace) {
    out.attempted = run_layer_passes(*mapper, in.reads, args.seconds, args.workdir, out);
    add_service_metrics(out, ServiceLayer{});  // no service layer on this workload
    return;
  }

  // Two rounds over the same reads: the first for half of --seconds (and at
  // least kMinTimedReads reads), the second repeating them. A read's latency
  // is the faster of its two calls, so a host stall during one call does not
  // enter the tail; throughput counts every call.
  const u64 min_reads = args.smoke ? 1 : kMinTimedReads;
  AccuracyReport acc;
  const auto timed_map = [&](u64 i, bool score) {
    const SimulatedRead& r = in.reads[i % in.reads.size()];
    const auto t0 = Clock::now();
    std::vector<Mapping> mappings;
    try {
      mappings = mapper->map(r.read);
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, "Mapper::map threw on " + r.read.name + ": " + e.what());
    }
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    if (score) tally_accuracy(acc, mappings, r.truth);
    return ms;
  };
  std::vector<double> latencies_ms;
  const auto start = Clock::now();
  for (u64 i = 0; i < min_reads || seconds_between(start, Clock::now()) < args.seconds / 2; ++i)
    latencies_ms.push_back(timed_map(i, i < in.reads.size()));
  for (u64 i = 0; i < latencies_ms.size(); ++i)
    latencies_ms[i] = std::min(latencies_ms[i], timed_map(i, false));
  const double elapsed = seconds_between(start, Clock::now());
  const double rss = peak_rss_mib();
  out.attempted = 2 * latencies_ms.size();
  out.check(out.failed == 0, "every serial read is answered");

  out.add("setup_s", median(setups), "s");
  out.add("reads_per_s", static_cast<double>(out.attempted) / elapsed, "reads/s");
  std::printf("latency: %zu reads, each the faster of two Mapper::map calls\n",
              latencies_ms.size());
  add_latency_metrics(out, latencies_ms);
  add_accuracy_metrics(out, acc);
  out.add("ok_frac", static_cast<double>(out.attempted - out.failed) / out.attempted,
          "fraction");
  out.add("peak_rss_mb", rss, "MiB");
}

}  // namespace manymap::perfbench
