// Shared declarations of the manymap benchmark driver: command-line
// arguments, the result every run prints, the workload table, and the
// measured passes each workload is built from.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "core/accuracy.hpp"
#include "core/mapper.hpp"
#include "simulate/read_sim.hpp"

namespace manymap::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and phases: checks that every metric is emitted, not speed.
  bool smoke = false;
  std::string workdir = ".";  ///< scratch files (saved indexes) go here
};

/// The run's verdict and metrics; main prints it as the last stdout line.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (printed immediately).
  void check(bool ok, const std::string& what);
};

struct WorkloadSpec {
  std::string name;
  bool service = false;  ///< served through AlignmentService (else serial Mapper)
  GenomeParams genome;
  ErrorProfile profile;
  /// The read property stratified sampling evens out across seeds: the one
  /// that drives this workload's per-read cost.
  enum class Strata { kLength, kPosition };
  Strata strata = Strata::kLength;
  MapOptions map;
  u32 pool_reads = 0;  ///< distinct simulated reads; timed phases cycle through them
};

/// The workload table; false for an unknown name.
bool find_workload(const std::string& name, bool smoke, WorkloadSpec& out);

struct Inputs {
  Reference ref;
  std::vector<SimulatedRead> reads;
};

/// Genome and reads for `spec`; the reads are fully determined by `seed`.
Inputs make_inputs(const WorkloadSpec& spec, u64 seed);

void run_serial(const Args& args, const WorkloadSpec& spec, Result& out);
void run_service(const Args& args, const WorkloadSpec& spec, Result& out);

/// The service layer's per-layer metrics, from the open-loop phase; all
/// zero on workloads that do not use the service.
struct ServiceLayer {
  double queue_ms_p50 = 0.0, queue_ms_p99 = 0.0;
  double compute_ms_p50 = 0.0, compute_ms_p99 = 0.0;
  double mean_batch_size = 0.0;
  double ingress_depth_peak = 0.0;
  double generator_late_ms_p99 = 0.0;
};
void add_service_metrics(Result& out, const ServiceLayer& s);

// --- helpers shared by the workloads ------------------------------------

/// Nearest-rank percentile (p in [0,1]) of `v`; sorts it. 0 when empty.
double percentile(std::vector<double>& v, double p);

/// Median of a small sample (copies).
double median(std::vector<double> v);

/// setup_s repeats: keep setting up until at least kSetupMinRepeats runs
/// and kSetupMinSeconds in total (at most kSetupMaxRepeats), so small
/// indexes are timed many times.
constexpr std::size_t kSetupMinRepeats = 5;
constexpr std::size_t kSetupMaxRepeats = 50;
constexpr double kSetupMinSeconds = 1.0;
inline bool setup_done(const std::vector<double>& times) {
  double total = 0.0;
  for (const double t : times) total += t;
  return times.size() >= kSetupMaxRepeats ||
         (times.size() >= kSetupMinRepeats && total >= kSetupMinSeconds);
}

/// Process peak resident set (getrusage ru_maxrss) in MiB.
double peak_rss_mib();

/// Tallies one read's answer the way score_accuracy does (Table 5 rule:
/// the primary mapping must hit the true contig, strand and interval).
void tally_accuracy(AccuracyReport& acc, const std::vector<Mapping>& mappings,
                    const TruthRecord& truth);

/// Adds the accuracy-derived end-to-end metrics.
void add_accuracy_metrics(Result& out, const AccuracyReport& acc);

/// latency_p50_ms and latency_p99_ms of samples in ms (sorts them); +inf
/// marks an unanswered request.
void add_latency_metrics(Result& out, std::vector<double>& latencies_ms);

/// The traced per-layer run (layers.cpp): maps reads untraced and traced,
/// interleaved, until budget_s has elapsed. Checks that both give
/// byte-identical PAF and adds index.load_s, every index/chain/align/core
/// metric and bench.tracing_overhead_frac. Returns the reads per pass.
std::size_t run_layer_passes(const Mapper& mapper, const std::vector<SimulatedRead>& reads,
                             double budget_s, const std::string& workdir, Result& out);

/// Allocation counters of the calling thread (alloc_counter.cpp replaces
/// the global operator new of this binary).
struct AllocCount {
  u64 calls = 0;
  u64 bytes = 0;
};
AllocCount thread_allocs();

}  // namespace manymap::perfbench
