// End-to-end determinism contracts for the whole mapper pipeline.
//
// Where verify.hpp pins down ONE kernel invocation, an E2eCase pins down a
// whole serving scenario: a synthetic reference, a mutated read set, and
// the configuration knobs of every layer above the kernels — degradation
// rungs (streamed dirs, banded, score-only, device offload), service
// worker counts and shuffled submission orders, the memory ladder,
// live-oracle sampling, and an armed fault plan. check_e2e_case
// (e2e_fuzzer.hpp) replays the case through the real Mapper::map and
// AlignmentService paths and asserts the determinism contract:
//
//   bit-identical   resident == streamed-dirs == banded(zdrop off) == gpu
//                   == every service run, across worker counts and
//                   submission orders (mappings, scores, CIGARs, PAF);
//   score-identical score-only answers equal the direct score-only
//                   baseline bit-for-bit, and stay span-consistent with
//                   the full baseline (same primary locus);
//   advisory        zdrop > 0 banded answers are heuristic — each mapping
//                   must still self-audit (CIGAR rescoring, reference
//                   upper bound) but is not required to match the
//                   baseline path.
//
// Cases serialize to the v2 repro format so a divergence found by the
// sweep is committed as a self-contained regression file, replayable by
// tools/manymap_verify without any seed or RNG version dependence.
#pragma once

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "verify/verify.hpp"

namespace manymap {
namespace verify {

/// One armed fault of a case's chaos phase (a fault::FaultSpec with the
/// duration flattened to milliseconds so it round-trips through text).
struct E2eFault {
  std::string site;
  fault::FaultKind kind = fault::FaultKind::kError;
  u32 one_in = 1;
  u32 max_fires = 0;
  u32 delay_ms = 0;

  fault::FaultSpec to_spec() const {
    return {site, kind, one_in, max_fires, std::chrono::milliseconds(delay_ms)};
  }
};

/// Pipeline-level configuration of one end-to-end case. Every knob is
/// explicit (no derivation from the case seed at check time), so repro
/// files stay valid even as make_e2e_case's distributions evolve.
struct E2eConfig {
  // Workload synthesis (simulate/genome.hpp + read_sim.hpp).
  u64 ref_seed = 7;
  u64 ref_len = 50'000;
  u32 ref_contigs = 2;
  u64 read_seed = 11;
  u32 num_reads = 6;
  u32 read_max_len = 2'000;
  // Direct degradation rungs, each replayed through Mapper::map against
  // the resident baseline. 0 skips a rung.
  i32 band = 0;         ///< banded rung half-width
  i32 zdrop = 0;        ///< >0 makes the banded rung advisory (see header)
  u64 dirs_budget = 0;  ///< streamed-dirs rung per-call budget
  bool gpu = false;     ///< device-offload rung + gpu-enabled service run
  // Service determinism runs: one AlignmentService per worker count, the
  // first submitting in read order, the rest in orders shuffled from
  // `shuffle_seed` — responses must be bit-identical across all of them.
  std::vector<u32> workers = {1, 2, 8};
  u64 shuffle_seed = 1;
  // Memory-ladder service run (all 0 = skip): thresholds for
  // ServiceConfig::MemoryConfig so responses span the degrade levels.
  u64 svc_resident_bytes = 0;
  u64 svc_score_only_bytes = 0;
  /// Live-oracle sampling rate for every service run (1 = audit all).
  u64 verify_every = 1;
  // Chaos phase (empty faults = skip): the service run repeated with this
  // plan installed; see check_e2e_case for what survives the contract.
  u64 fault_seed = 0;
  std::vector<E2eFault> faults;
};

/// One end-to-end case: the seed it derived from (0 for hand-written
/// repros), its full configuration, and — when non-empty — an explicit
/// read set overriding `cfg.read_seed` synthesis (the minimizer
/// materializes reads so it can drop and shrink them individually).
struct E2eCase {
  u64 seed = 0;
  E2eConfig cfg;
  std::vector<std::vector<u8>> reads;
};

/// Which format a repro file carries: a v1 single-kernel CaseSpec or a v2
/// end-to-end E2eCase.
enum class ReproKind { kKernel, kE2e };

/// Self-contained v2 text repro. `note` is carried as comment lines.
std::string format_e2e_repro(const E2eCase& c, const std::string& note);

/// Parse a v2 repro produced by format_e2e_repro (also accepts
/// hand-written ones). On failure returns false and sets *err.
bool parse_e2e_repro(const std::string& text, E2eCase* out, std::string* err);

/// Load a repro file of either format, dispatching on the header line:
/// v1 fills *kernel, v2 fills *e2e, *kind says which. Existing v1
/// regression files replay unchanged through this entry point.
bool load_repro_any(const std::string& path, ReproKind* kind, CaseSpec* kernel,
                    E2eCase* e2e, std::string* err);

}  // namespace verify
}  // namespace manymap
