// The three workloads and their seeded inputs. Why each exists is recorded
// in BENCHMARK.json; in short:
//   pb_clr_serial      small genome, noisy PacBio CLR reads: extension
//                      kernels and align-side copies dominate.
//   repeat_hifi_serial large repeat-rich genome, accurate long reads: the
//                      index outgrows L2 and seed/anchor/chain work grows,
//                      while gap kernels do little.
//   ont_service_open   Nanopore reads through AlignmentService with a
//                      loaded index: the only workload where the service
//                      layer (queueing, batching) does work.
#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace manymap::perfbench {

namespace {

/// Reads are drawn by stratified sampling: kCandidatesPerRead candidates
/// per read are simulated, sorted by the workload's cost key, and the seed
/// keeps one per stratum. Every seed gets different reads, but the share of
/// long reads (or of repeat-region reads) that drives tail latency varies
/// far less between seeds than with plain random sampling.
constexpr u32 kCandidatesPerRead = 4;

u64 strata_key(const SimulatedRead& r, WorkloadSpec::Strata strata) {
  return strata == WorkloadSpec::Strata::kLength
             ? r.truth.end - r.truth.start
             : (static_cast<u64>(r.truth.contig) << 40) | r.truth.start;
}

/// HiFi-like: ~0.6% error, narrow length spread around ~10.5 kbp.
ErrorProfile hifi_profile() {
  ErrorProfile e;
  e.platform = Platform::kPacBio;
  e.sub_rate = 0.002;
  e.ins_rate = 0.002;
  e.del_rate = 0.002;
  e.log_sigma = 0.08;
  e.log_mu = std::log(10'500.0) - e.log_sigma * e.log_sigma / 2;
  e.min_length = 9'000;
  e.max_length = 12'000;
  return e;
}

}  // namespace

bool find_workload(const std::string& name, bool smoke, WorkloadSpec& out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "pb_clr_serial") {
    w.genome.total_length = smoke ? 60'000 : 200'000;
    w.profile = ErrorProfile::pacbio();
    w.strata = WorkloadSpec::Strata::kLength;
    w.map = MapOptions::map_pb();
    w.pool_reads = smoke ? 24 : 3'000;
  } else if (name == "repeat_hifi_serial") {
    // About half of the genome is planted repeat copies.
    w.genome.total_length = smoke ? 400'000 : 4'000'000;
    w.genome.repeat_families = smoke ? 4 : 32;
    w.genome.repeat_copies = 20;
    w.genome.repeat_length = 3'000;
    w.genome.repeat_divergence = 0.01;
    w.profile = hifi_profile();
    w.strata = WorkloadSpec::Strata::kPosition;  // lengths are narrow; repeats vary
    w.map = MapOptions::map_pb();
    w.pool_reads = smoke ? 16 : 3'000;
  } else if (name == "ont_service_open") {
    w.service = true;
    w.genome.total_length = smoke ? 200'000 : 4'000'000;
    w.profile = ErrorProfile::nanopore();
    w.strata = WorkloadSpec::Strata::kLength;
    w.map = MapOptions::map_ont();
    w.pool_reads = smoke ? 48 : 8'000;
  } else {
    return false;
  }
  out = std::move(w);
  return true;
}

Inputs make_inputs(const WorkloadSpec& spec, u64 seed) {
  Inputs in;
  // The genome is part of the workload's definition, like a reference
  // assembly; the seed draws the read sample from it.
  in.ref = generate_genome(spec.genome);
  u64 state = seed;
  std::vector<u64> candidate_seeds(static_cast<std::size_t>(spec.pool_reads) *
                                  kCandidatesPerRead);
  for (auto& s : candidate_seeds) s = splitmix64(state);
  // Each candidate has its own simulator stream, so a chosen one can be
  // regenerated without keeping every candidate in memory.
  const auto simulate = [&](u32 j) {
    ReadSimParams rp;
    rp.profile = spec.profile;
    rp.seed = candidate_seeds[j];
    return ReadSimulator(in.ref, rp).next(j);
  };
  std::vector<std::pair<u64, u32>> keyed;
  keyed.reserve(candidate_seeds.size());
  for (u32 j = 0; j < candidate_seeds.size(); ++j)
    keyed.emplace_back(strata_key(simulate(j), spec.strata), j);
  std::sort(keyed.begin(), keyed.end());
  Rng rng(splitmix64(state));
  std::vector<u32> chosen;
  for (u32 i = 0; i < spec.pool_reads; ++i)
    chosen.push_back(keyed[i * kCandidatesPerRead + rng.uniform(kCandidatesPerRead)].second);
  for (std::size_t i = chosen.size(); i > 1; --i)  // Fisher-Yates: strata in random order
    std::swap(chosen[i - 1], chosen[rng.uniform(i)]);
  in.reads.reserve(chosen.size());
  for (const u32 j : chosen) in.reads.push_back(simulate(j));
  return in;
}

}  // namespace manymap::perfbench
