// manymap_perfbench — one run of one benchmark workload.
//
//   manymap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--workdir DIR] [--smoke]
//
// Prints progress and a host stamp, then as the last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the JSON still prints), 2 on bad arguments or an unexpected error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <thread>

#include "core/options.hpp"

#include "bench.hpp"

namespace manymap::perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void tally_accuracy(AccuracyReport& acc, const std::vector<Mapping>& mappings,
                    const TruthRecord& truth) {
  ++acc.total_reads;
  const auto primary =
      std::find_if(mappings.begin(), mappings.end(), [](const Mapping& m) { return m.primary; });
  if (primary == mappings.end()) return;
  ++acc.aligned_reads;
  acc.correct_reads += mapping_is_correct(*primary, truth);
}

void add_accuracy_metrics(Result& out, const AccuracyReport& acc) {
  // Reported as shares of good outcomes so that no metric reads 0 on a
  // healthy run: correct_frac = 1 - error_rate (score_accuracy's rule).
  out.add("correct_frac", 1.0 - acc.error_rate(), "fraction");
  out.add("mapped_frac", acc.aligned_fraction(), "fraction");
  std::printf("accuracy: %llu reads, %llu aligned, %llu correct (error rate %.5f)\n",
              static_cast<unsigned long long>(acc.total_reads),
              static_cast<unsigned long long>(acc.aligned_reads),
              static_cast<unsigned long long>(acc.correct_reads), acc.error_rate());
}

void add_latency_metrics(Result& out, std::vector<double>& latencies_ms) {
  // A percentile that lands on an unanswered request (+inf) is reported as
  // this ceiling so the JSON stays finite.
  constexpr double kUnansweredMs = 1e9;
  out.add("latency_p50_ms", std::min(percentile(latencies_ms, 0.50), kUnansweredMs), "ms");
  out.add("latency_p99_ms", std::min(percentile(latencies_ms, 0.99), kUnansweredMs), "ms");
}

namespace {

void print_host_stamp() {
  std::printf("host: nproc=%u best_isa=%s build=%s compiler=%s\n",
              std::thread::hardware_concurrency(), to_string(best_isa()), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "manymap_perfbench: %s\n"
               "usage: manymap_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--smoke]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace manymap::perfbench

int main(int argc, char** argv) {
  using namespace manymap;
  using namespace manymap::perfbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      const auto s = parse_int(v);
      if (!s || *s < 0) return usage("--seed needs a non-negative integer");
      args.seed = static_cast<u64>(*s);
      have_seed = true;
    } else if (a == "--seconds") {
      const auto s = parse_nonneg_double(v);
      if (!s || *s <= 0) return usage("--seconds needs a positive number");
      args.seconds = *s;
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace needs 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else if (a == "--workdir") {
      args.workdir = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");
  WorkloadSpec spec;
  if (!find_workload(args.workload, args.smoke, spec))
    return usage(("unknown workload '" + args.workload + "'").c_str());

  print_host_stamp();
  Result result;
  try {
    if (spec.service) run_service(args, spec, result);
    else run_serial(args, spec, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "manymap_perfbench: %s\n", e.what());
    return 2;
  }
  print_host_stamp();
  print_result(result);
  return result.correct ? 0 : 1;
}
