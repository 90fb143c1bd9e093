// Deterministic mutation fuzzer driving the differential oracle across the
// full kernel matrix:
//   {minimap2, manymap} layouts x {scalar, SSE2, AVX2, AVX-512} ISAs
//   x {global, extension} modes x {score-only, full-path}
//   x {one-piece diff, two-piece diff} families, plus the SIMT block
//   kernel forms (Fig. 4a/4b) at several block widths.
//
// Every case derives from a single u64 seed through a self-contained
// xorshift64* generator (no dependence on base/random so repro files stay
// stable even if the simulation RNG evolves). Generators cover the places
// 8-bit-lane anti-diagonal DP kernels historically break:
//   substitution / indel  — long-read-like error structure,
//   homopolymer           — maximal gap-placement tie ambiguity,
//   length sweep          — vector-width tails (15..65, 127..129, ...),
//   band edge             — extreme |T| / |Q| asymmetry (diagonal clipping),
//   saturation            — scoring near the int8 difference-lane bound on
//                           high-identity pairs with long gaps.
//
// On divergence, the sweep auto-minimizes the case (greedy chunked trimming
// plus base simplification, re-running the oracle at every step) and can
// emit a self-contained text repro replayable by tools/manymap_verify and
// committed under tests/data/regressions/.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "verify/verify.hpp"

namespace manymap {
namespace verify {

/// xorshift64* — tiny, deterministic, platform-independent.
class XorShift {
 public:
  explicit XorShift(u64 seed) : s_(seed != 0 ? seed : 0x9e3779b97f4a7c15ULL) {}

  u64 next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_ * 0x2545f4914f6cdd1dULL;
  }
  /// Uniform in [0, n); n > 0.
  u64 below(u64 n) { return next() % n; }
  /// Uniform in [lo, hi] inclusive.
  i64 range(i64 lo, i64 hi) { return lo + static_cast<i64>(below(static_cast<u64>(hi - lo + 1))); }
  /// True with probability num/den.
  bool chance(u64 num, u64 den) { return below(den) < num; }
  u8 base() { return static_cast<u8>(below(4)); }

 private:
  u64 s_;
};

enum class Generator {
  kSubstitution,
  kIndel,
  kHomopolymer,
  kLengthSweep,
  kBandEdge,
  kSaturation,
};
inline constexpr int kNumGenerators = 6;

const char* to_string(Generator g);

/// Sequences + scoring derived deterministically from one seed.
struct FuzzCase {
  u64 seed = 0;
  Generator generator = Generator::kSubstitution;
  std::vector<u8> target;
  std::vector<u8> query;
  ScoreParams params{};
  TwoPieceParams tp{};
};

/// Deterministic: the same seed always yields the same case.
FuzzCase make_case(u64 seed);

/// Long-read-shaped case: a `target_len` random target and an
/// indel-mutated query at PacBio-like error rates, with scoring drawn from
/// the int8-safe pools. Deterministic in (seed, target_len). Used by the
/// long-read sweep and the CI memory-budget smoke.
FuzzCase make_longread_case(u64 seed, i32 target_len);

struct SweepOptions {
  u64 seeds = 256;
  u64 first_seed = 1;
  bool family_diff = true;
  bool family_twopiece = true;
  bool family_simt = true;
  bool family_banded = true;  ///< full-coverage banded DP (global mode only)
  /// Banded diff/two-piece/SIMT kernel cells: each seed derives a covering
  /// band (usually exact, unflagged), a deliberately narrow band (forces
  /// the band-hit -> rerun-unbanded fallback) and a zdrop variant, all
  /// validated against the same unbanded reference through the production
  /// auto-full-fallback contract (see CaseSpec::band).
  bool family_bandfull = true;
  bool minimize = true;      ///< shrink divergent cases before reporting
  i32 simt_max_len = 96;     ///< interpreter is slow; cap SIMT case size
  u64 simt_every = 4;        ///< run SIMT cells on every Nth seed
};

/// Options for the long-read streaming sweep (run_longread_sweep).
struct LongReadOptions {
  u64 seeds = 100;
  u64 first_seed = 1;
  i32 min_len = 1024;  ///< per-seed target length, drawn uniformly
  i32 max_len = 4096;
  /// Also check the kernel score/end cell against the row-band streamed
  /// reference DP (diff-family seeds only; the two-piece reference has no
  /// streamed form).
  bool with_reference = true;
  /// Route every Nth seed's spill through a temp file (FileDirsSpill)
  /// instead of the heap sink, exercising the file I/O path.
  u64 file_spill_every = 8;
};

/// Options for the device-agreement sweep (run_gpu_sweep).
struct GpuSweepOptions {
  u64 seeds = 48;
  u64 first_seed = 1;
  i32 min_len = 96;   ///< per-segment target length, drawn uniformly
  i32 max_len = 288;  ///< (the device interpreter cost scales with cells)
  bool minimize = true;  ///< shrink divergent cases before reporting
};

/// Device-vs-CPU agreement for ONE case: replays the case through the
/// offload subsystem (score-mode DP on the simulated device; extension
/// paths completed on the host from the device end cell) and through the
/// spec's host kernel, requiring bit-identical score, end cell and — for
/// path-mode diff cases — CIGAR. kDiff and kTwoPiece families only; the
/// device runs two-piece kernels in score mode, so with_cigar is ignored
/// there. Non-runnable specs and ISA gaps answer ok (nothing to compare).
CheckResult check_gpu_case(const CaseSpec& spec);

/// One confirmed divergence, minimized when SweepOptions::minimize is set.
struct Divergence {
  CaseSpec spec;
  std::string failure;
  u64 seed = 0;
  Generator generator = Generator::kSubstitution;
};

struct ComboStats {
  std::string name;  ///< family/layout/isa/mode/path
  u64 cases = 0;
  u64 divergences = 0;
};

struct SweepStats {
  u64 cases_run = 0;  ///< oracle-validated kernel invocations
  std::vector<ComboStats> combos;
  std::vector<Divergence> divergences;
};

/// Sweep `opt.seeds` fuzz cases across every runnable matrix cell,
/// validating each production result against one shared reference per
/// (case, family, mode). `on_divergence` (optional) fires after
/// minimization, as each divergence is found.
SweepStats run_sweep(const SweepOptions& opt,
                     const std::function<void(const Divergence&)>& on_divergence = {});

/// End-to-end sweep of the diagonal-block dirs streaming path on
/// long-read-sized pairs. Each seed picks one (family, layout, ISA, mode)
/// cell, runs the resident-dirs kernel as the baseline, then replays the
/// identical case through the streaming path at several block heights
/// (degenerate 1-row, a small-budget block, the default block) and through
/// both spill sinks — every replay must be bit-identical in score, end
/// cell and CIGAR. Diff-family seeds additionally check the score/end cell
/// against the row-band streamed reference DP. Divergences are reported
/// un-minimized (cases are large; the failure text names the block
/// configuration).
SweepStats run_longread_sweep(
    const LongReadOptions& opt,
    const std::function<void(const Divergence&)>& on_divergence = {});

/// Device-agreement sweep: each seed builds one offload subsystem with a
/// randomized shape (stream count, staging budget — occasionally tight
/// enough to trip the staging-exhaustion fallback — and block width), then
/// pushes a randomized batch composition (segment count, lengths, modes,
/// families, path flavours, staged through random streams) and requires
/// every segment to agree with the host kernel bit-for-bit. Divergences
/// are minimized against check_gpu_case when opt.minimize is set.
SweepStats run_gpu_sweep(const GpuSweepOptions& opt,
                         const std::function<void(const Divergence&)>& on_divergence = {});

/// Greedy shrink: chunked trims of both sequences from both ends, then
/// base-to-'A' simplification, keeping every step that still fails the
/// oracle. Returns the smallest failing spec found (== input if the case
/// no longer fails, e.g. a flaky environment).
CaseSpec minimize_case(const CaseSpec& spec);

/// Self-contained text repro. `note` is carried as a comment (typically the
/// oracle failure and originating seed).
std::string format_repro(const CaseSpec& spec, const std::string& note);

/// Parse a repro produced by format_repro (also accepts hand-written ones).
/// On failure returns false and sets *err.
bool parse_repro(const std::string& text, CaseSpec* out, std::string* err);

/// Read + parse a repro file.
bool load_repro_file(const std::string& path, CaseSpec* out, std::string* err);

}  // namespace verify
}  // namespace manymap
