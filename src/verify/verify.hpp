// Differential verification oracle for the alignment kernel matrix.
//
// A CaseSpec pins down ONE production kernel invocation — kernel family
// (diff / SIMT block form / banded reference rung), memory layout, ISA,
// alignment mode, score-only vs full path, scoring parameters and the
// concrete sequence pair. The oracle replays the case through the
// full-matrix reference DP and validates the production result:
//   1. score equality with the reference,
//   2. end-cell equality,
//   3. CIGAR well-formedness (no zero-length ops, no adjacent runs of the
//      same op, ops consume exactly the aligned target/query spans),
//   4. score recomputation from the CIGAR equals the reported score,
//   5. exact CIGAR equality with the reference (the kernels share the
//      reference's deterministic tie-breaking, so paths must be bit-exact).
//
// This is the trust layer every perf PR lands on: a kernel refactor that
// passes the fuzzer sweep (fuzzer.hpp) across the full
// (layout x ISA x mode x path x family) matrix is score- and
// CIGAR-equivalent to the gold standard.
#pragma once

#include <string>
#include <vector>

#include "align/kernel_api.hpp"

namespace manymap {
namespace verify {

/// Kernel families under verification. kSimt runs the block-interpreter
/// GPU kernel forms (Fig. 4a/4b), which share the diff kernels' scoring.
/// kBanded runs the banded global DP with a full-coverage band — the
/// fallback ladder's last rung (align/fallback.hpp), which must equal the
/// reference DP bit-for-bit, tie-breaking included.
enum class Family { kDiff, kSimt, kBanded };

const char* to_string(Family family);

/// Self-contained description of one kernel invocation.
struct CaseSpec {
  Family family = Family::kDiff;
  Layout layout = Layout::kManymap;
  Isa isa = Isa::kScalar;  ///< ignored by kSimt (interpreter, not ISA)
  AlignMode mode = AlignMode::kGlobal;
  bool with_cigar = true;
  u32 simt_threads = 64;   ///< block width for kSimt
  ScoreParams params{};
  /// Static band half-width for the banded kernel variants (0 = unbanded).
  /// For kDiff / kSimt, run_production replays the production
  /// contract: run banded, and on band_hit / BandHitError rerun unbanded —
  /// exactly the Mapper's auto-full fallback — so the final result must
  /// still match the unbanded reference bit-for-bit. For kBanded it is the
  /// reference rung's half-width (0 keeps the full-coverage default).
  i32 band = 0;
  /// Adaptive X-drop threshold (banded runs only; 0 = off). Results that
  /// come back with `zdropped` set are heuristic and checked as bounded
  /// (score <= reference optimum, CIGAR self-consistent), not bit-exact.
  i32 zdrop = 0;
  std::vector<u8> target;
  std::vector<u8> query;

  /// Human-readable (family/layout/isa/mode/path) combo label.
  std::string combo() const;
};

/// True when the case's kernel exists on this machine (ISA compiled in and
/// supported) and its parameters satisfy the int8 difference-lane contract.
bool runnable(const CaseSpec& spec);

struct CheckResult {
  bool ok = true;
  std::string failure;  ///< first violated invariant, human-readable

  static CheckResult fail(std::string why) { return CheckResult{false, std::move(why)}; }
};

/// Structural CIGAR validation: every op length > 0, no two adjacent ops of
/// the same kind (push() merges, so adjacency indicates a broken emitter),
/// and the ops consume exactly `t_span` target and `q_span` query bases.
bool validate_cigar_shape(const Cigar& cigar, u64 t_span, u64 q_span,
                          std::string* why = nullptr);

/// Run the production kernel for a runnable case. The two-argument form
/// routes the kernel's DP workspace through `arena` (see align/arena.hpp),
/// so callers that replay many cases — the fuzzer sweep, the service's
/// live verifier — exercise the dirty-workspace reuse path instead of a
/// fresh allocation per case; nullptr keeps the fresh-workspace behaviour.
AlignResult run_production(const CaseSpec& spec);
AlignResult run_production(const CaseSpec& spec, detail::KernelArena* arena);

/// As run_production, but drives the diagonal-block dirs streaming path:
/// direction rows leave the arena through `spill` in blocks of
/// `block_rows` padded diagonal rows (0 picks the default block; see
/// align/dirs_spill.hpp). kDiff only — the other families have no
/// streaming form. Results must be bit-identical to the resident path.
AlignResult run_production_streamed(const CaseSpec& spec, detail::KernelArena* arena,
                                    DirsSpill* spill, i32 block_rows);

/// Run the matching full-matrix reference DP (always with a CIGAR, so the
/// oracle can compare paths).
AlignResult run_reference(const CaseSpec& spec);

/// Validate an already-produced result against a reference result. Exposed
/// separately so tests can feed corrupted results and the sweep can reuse
/// one reference across the (layout x ISA x path) cells of a case.
CheckResult check_result(const CaseSpec& spec, const AlignResult& got,
                         const AlignResult& ref);

/// check_result(spec, run_production(spec), run_reference(spec)).
CheckResult run_oracle(const CaseSpec& spec);

/// One mapping from a live service response, reduced to what the oracle
/// needs (no dependency on the service's types). `query` is the oriented
/// read — reverse-complemented by the caller when the mapping is on the
/// reverse strand — and qstart/qend are oriented coordinates.
struct LiveMapping {
  const std::vector<u8>* contig = nullptr;  ///< full contig codes
  u64 tstart = 0, tend = 0;                 ///< reference span, end exclusive
  const std::vector<u8>* query = nullptr;   ///< oriented query codes
  u32 qstart = 0, qend = 0;                 ///< oriented span, end exclusive
  i64 score = 0;                            ///< reported DP score
  const Cigar* cigar = nullptr;             ///< reported path
};

/// Default ceiling for the row-band streamed reference replay inside
/// check_live_mapping: covers a 64 kbp x 64 kbp span (~4.1e9 cells) with
/// headroom while keeping a single audit at seconds, not minutes.
inline constexpr u64 kDefaultMaxStreamCells = u64{5} << 30;

/// Audit one live mapping: coordinate sanity, CIGAR shape over the spans,
/// CIGAR rescoring == reported score, and a reference upper-bound check —
/// the reference DP over the spans must not score LOWER than the reported
/// path (the stitched path is one valid global path, so reported >
/// reference proves a scoring bug; reported < reference is expected,
/// stitching is a heuristic). Spans up to `max_ref_cells` replay the
/// full-matrix reference; larger spans up to `max_stream_cells` replay the
/// row-band streamed reference (reference_align_streamed), which needs
/// O(|T|+|Q|) memory instead of O(|T|*|Q|) — this is what lets >32 kbp
/// mappings be spot-verified at all. Used by the serving layer's --verify
/// sampling.
CheckResult check_live_mapping(const LiveMapping& m, const ScoreParams& params,
                               u64 max_ref_cells,
                               u64 max_stream_cells = kDefaultMaxStreamCells);

/// Audit a score-only live mapping (no CIGAR to rescore — the breaker or
/// the footprint cap skipped the path pass and the reported score is a
/// chain score, advisory by contract): both spans must be non-empty and
/// inside their sequences. `m.cigar` may be null; `m.score` is ignored.
/// This is what lets degraded responses be *verified*, not just skipped.
CheckResult check_live_spans(const LiveMapping& m);

}  // namespace verify
}  // namespace manymap
