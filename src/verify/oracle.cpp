#include "verify/verify.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "align/banded.hpp"
#include "align/reference_dp.hpp"
#include "simt/kernels.hpp"

namespace manymap {
namespace verify {

namespace {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

DiffArgs diff_args(const CaseSpec& s) {
  DiffArgs a;
  a.target = s.target.data();
  a.tlen = static_cast<i32>(s.target.size());
  a.query = s.query.data();
  a.qlen = static_cast<i32>(s.query.size());
  a.params = s.params;
  a.mode = s.mode;
  a.with_cigar = s.with_cigar;
  a.band = s.band;
  a.zdrop = s.zdrop;
  return a;
}

/// Production banded contract, as the Mapper enforces it: run banded, and
/// when the kernel flags band_hit (or the backtrack throws BandHitError)
/// rerun unbanded. An unflagged banded result is bit-identical to the full
/// kernel's, so the final answer always is — except for zdropped results,
/// which are heuristic by design and surface to the checker.
template <typename Run>
AlignResult run_banded_with_fallback(DiffArgs a, const Run& run) {
  bool retry_full = false;
  AlignResult r;
  try {
    r = run(a);
    retry_full = r.band_hit;
  } catch (const BandHitError&) {
    retry_full = true;
  }
  if (retry_full) {
    a.band = 0;
    a.zdrop = 0;
    r = run(a);
  }
  return r;
}

}  // namespace

const char* to_string(Family family) {
  switch (family) {
    case Family::kDiff: return "diff";
    case Family::kSimt: return "simt";
    case Family::kBanded: return "banded";
  }
  return "?";
}

std::string CaseSpec::combo() const {
  std::string s = to_string(family);
  s += '/';
  s += manymap::to_string(layout);
  s += '/';
  if (family == Family::kSimt) {
    s += fmt("%ut", simt_threads);
  } else if (family == Family::kBanded) {
    s += "fullband";  // the oracle-checkable configuration: band covers all
  } else {
    s += manymap::to_string(isa);
  }
  s += '/';
  s += manymap::to_string(mode);
  s += with_cigar ? "/path" : "/score";
  // Aggregation key, so the label carries the banded *shape*, not the
  // per-case numeric width (which would explode the combo table).
  if (band > 0 && family != Family::kBanded) s += zdrop > 0 ? "/banded+z" : "/banded";
  return s;
}

bool runnable(const CaseSpec& spec) {
  switch (spec.family) {
    case Family::kDiff:
      if (!spec.params.fits_int8()) return false;
      return get_diff_kernel(spec.layout, spec.isa) != nullptr;
    case Family::kSimt:
      return spec.params.fits_int8() && spec.simt_threads > 0 &&
             spec.simt_threads <= simt::DeviceSpec::v100().max_block_threads;
    case Family::kBanded:
      // i32 DP: no int8 contract. Only global mode exists; a full-coverage
      // band is the only configuration comparable to the reference.
      return spec.mode == AlignMode::kGlobal;
  }
  return false;
}

bool validate_cigar_shape(const Cigar& cigar, u64 t_span, u64 q_span, std::string* why) {
  auto fail = [&](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  u64 t = 0, q = 0;
  char prev = '\0';
  for (const CigarOp& op : cigar.ops()) {
    if (op.op != 'M' && op.op != 'D' && op.op != 'I')
      return fail(fmt("unknown op '%c'", op.op));
    if (op.len == 0) return fail(fmt("zero-length '%c' op", op.op));
    if (op.op == prev) return fail(fmt("adjacent '%c' runs not merged", op.op));
    prev = op.op;
    if (op.op != 'I') t += op.len;
    if (op.op != 'D') q += op.len;
  }
  if (t != t_span)
    return fail(fmt("target span %llu != expected %llu",
                    static_cast<unsigned long long>(t),
                    static_cast<unsigned long long>(t_span)));
  if (q != q_span)
    return fail(fmt("query span %llu != expected %llu",
                    static_cast<unsigned long long>(q),
                    static_cast<unsigned long long>(q_span)));
  return true;
}

AlignResult run_production(const CaseSpec& spec) {
  return run_production(spec, nullptr);
}

AlignResult run_production(const CaseSpec& spec, detail::KernelArena* arena) {
  MM_REQUIRE(runnable(spec), "case is not runnable on this machine");
  switch (spec.family) {
    case Family::kDiff: {
      DiffArgs a = diff_args(spec);
      a.arena = arena;
      const KernelFn k = get_diff_kernel(spec.layout, spec.isa);
      if (a.band > 0) return run_banded_with_fallback(a, k);
      return k(a);
    }
    case Family::kSimt: {
      DiffArgs a = diff_args(spec);
      a.arena = arena;
      const auto run = [&](const DiffArgs& args) {
        return simt::gpu_align(args, spec.layout, simt::DeviceSpec::v100(),
                               spec.simt_threads)
            .result;
      };
      if (a.band > 0) return run_banded_with_fallback(a, run);
      return run(a);
    }
    case Family::kBanded: {
      BandedArgs b;
      b.target = spec.target.data();
      b.tlen = static_cast<i32>(spec.target.size());
      b.query = spec.query.data();
      b.qlen = static_cast<i32>(spec.query.size());
      b.params = spec.params;
      // Full coverage by default; spec.band > 0 pins the narrow-band
      // geometry (committed regressions exercise the corner auto-widening,
      // whose advisory band_hit the checker treats as heuristic).
      b.band = spec.band > 0 ? spec.band : std::max(b.tlen, b.qlen) + 1;
      b.with_cigar = spec.with_cigar;
      return banded_global_align(b);
    }
  }
  fatal("unknown kernel family", __FILE__, __LINE__);
}

AlignResult run_production_streamed(const CaseSpec& spec, detail::KernelArena* arena,
                                    DirsSpill* spill, i32 block_rows) {
  MM_REQUIRE(runnable(spec), "case is not runnable on this machine");
  MM_REQUIRE(spec.family == Family::kDiff, "dirs streaming exists for the diff kernels only");
  DiffArgs a = diff_args(spec);
  a.arena = arena;
  a.spill = spill;
  a.spill_block_rows = block_rows;
  return get_diff_kernel(spec.layout, spec.isa)(a);
}

AlignResult run_reference(const CaseSpec& spec) {
  DiffArgs a = diff_args(spec);
  a.with_cigar = true;
  return reference_align(a);
}

CheckResult check_result(const CaseSpec& spec, const AlignResult& got,
                         const AlignResult& ref) {
  // Heuristic results — an advisory band_hit from the reference-rung banded
  // DP, or a zdrop-pruned banded kernel run — confine the path search, so
  // they cannot be compared bit-for-bit. They are still bounded: pruning
  // only removes candidate paths, so the score must never BEAT the
  // reference optimum, and a reported CIGAR must stay self-consistent.
  // (Production kDiff/kSimt banded runs never surface band_hit —
  // run_production reruns them unbanded — only zdropped reaches here.)
  if (got.band_hit || got.zdropped) {
    if (got.score > ref.score)
      return CheckResult::fail(fmt("band-confined score %lld beats the reference "
                                   "optimum %lld",
                                   static_cast<long long>(got.score),
                                   static_cast<long long>(ref.score)));
    if (!spec.with_cigar || got.cigar.empty()) return {};
    std::string why;
    const u64 t_span = static_cast<u64>(got.t_end + 1);
    const u64 q_span = static_cast<u64>(got.q_end + 1);
    if (!validate_cigar_shape(got.cigar, t_span, q_span, &why))
      return CheckResult::fail("malformed band-confined CIGAR: " + why);
    const i64 path_score = got.cigar.score(spec.target, spec.query, 0, 0, spec.params);
    if (path_score != got.score)
      return CheckResult::fail(fmt("band-confined CIGAR rescoring %lld != reported "
                                   "score %lld",
                                   static_cast<long long>(path_score),
                                   static_cast<long long>(got.score)));
    return {};
  }
  if (got.score != ref.score)
    return CheckResult::fail(fmt("score %lld != reference %lld",
                                 static_cast<long long>(got.score),
                                 static_cast<long long>(ref.score)));
  if (got.t_end != ref.t_end || got.q_end != ref.q_end)
    return CheckResult::fail(fmt("end cell (%d,%d) != reference (%d,%d)", got.t_end,
                                 got.q_end, ref.t_end, ref.q_end));
  if (!spec.with_cigar) {
    if (!got.cigar.empty())
      return CheckResult::fail("score-only result carries a CIGAR");
    return {};
  }
  std::string why;
  // Degenerate global cases align against an empty side: the whole other
  // sequence is one gap op and t_end/q_end stay -1 on the empty axis.
  const u64 t_span = static_cast<u64>(got.t_end + 1);
  const u64 q_span = static_cast<u64>(got.q_end + 1);
  if (!validate_cigar_shape(got.cigar, t_span, q_span, &why))
    return CheckResult::fail("malformed CIGAR: " + why);
  const i64 path_score = got.cigar.score(spec.target, spec.query, 0, 0, spec.params);
  if (path_score != got.score)
    return CheckResult::fail(fmt("CIGAR rescoring %lld != reported score %lld",
                                 static_cast<long long>(path_score),
                                 static_cast<long long>(got.score)));
  if (got.cigar.to_string() != ref.cigar.to_string())
    return CheckResult::fail("CIGAR " + got.cigar.to_string() + " != reference " +
                             ref.cigar.to_string());
  return {};
}

CheckResult run_oracle(const CaseSpec& spec) {
  return check_result(spec, run_production(spec), run_reference(spec));
}

namespace {

/// Coordinate sanity shared by the full and score-only live audits.
CheckResult check_live_coordinates(const LiveMapping& m) {
  MM_REQUIRE(m.contig != nullptr && m.query != nullptr,
             "live mapping audit needs contig/query");
  if (m.tend > m.contig->size() || m.tstart > m.tend)
    return CheckResult::fail(fmt("reference span [%llu,%llu) outside contig of %llu",
                                 static_cast<unsigned long long>(m.tstart),
                                 static_cast<unsigned long long>(m.tend),
                                 static_cast<unsigned long long>(m.contig->size())));
  if (m.qend > m.query->size() || m.qstart > m.qend)
    return CheckResult::fail(fmt("query span [%u,%u) outside read of %llu", m.qstart,
                                 m.qend, static_cast<unsigned long long>(m.query->size())));
  return {};
}

}  // namespace

CheckResult check_live_spans(const LiveMapping& m) {
  const CheckResult coords = check_live_coordinates(m);
  if (!coords.ok) return coords;
  // Score-only mappings come straight from chain bounds: a chain always
  // covers at least one anchor, so a degenerate (empty) span on either
  // axis is a coordinate bug, not a legitimate alignment.
  if (m.tend == m.tstart)
    return CheckResult::fail(fmt("score-only mapping has an empty reference span at %llu",
                                 static_cast<unsigned long long>(m.tstart)));
  if (m.qend == m.qstart)
    return CheckResult::fail(fmt("score-only mapping has an empty query span at %u",
                                 m.qstart));
  return {};
}

CheckResult check_live_mapping(const LiveMapping& m, const ScoreParams& params,
                               u64 max_ref_cells, u64 max_stream_cells) {
  MM_REQUIRE(m.cigar != nullptr, "live mapping audit needs a cigar");
  const CheckResult coords = check_live_coordinates(m);
  if (!coords.ok) return coords;
  const u64 t_span = m.tend - m.tstart;
  const u64 q_span = m.qend - m.qstart;
  std::string why;
  if (!validate_cigar_shape(*m.cigar, t_span, q_span, &why))
    return CheckResult::fail("malformed CIGAR: " + why);
  const i64 path_score = m.cigar->score(*m.contig, *m.query, m.tstart, m.qstart, params);
  if (path_score != m.score)
    return CheckResult::fail(fmt("CIGAR rescoring %lld != reported score %lld",
                                 static_cast<long long>(path_score),
                                 static_cast<long long>(m.score)));
  // Reference upper bound: small spans replay the full-matrix DP exactly;
  // larger spans (up to max_stream_cells) replay the row-band streamed
  // reference, whose resident state is O(t_span + q_span) instead of the
  // O(t_span * q_span) int32 matrices — long-read mappings stay auditable.
  const u64 cells = t_span * q_span;
  if (t_span > 0 && q_span > 0 && cells <= std::max(max_ref_cells, max_stream_cells)) {
    const std::vector<u8> target(m.contig->begin() + static_cast<i64>(m.tstart),
                                 m.contig->begin() + static_cast<i64>(m.tend));
    const std::vector<u8> query(m.query->begin() + m.qstart, m.query->begin() + m.qend);
    DiffArgs a;
    a.target = target.data();
    a.tlen = static_cast<i32>(target.size());
    a.query = query.data();
    a.qlen = static_cast<i32>(query.size());
    a.params = params;
    a.mode = AlignMode::kGlobal;
    a.with_cigar = false;
    const AlignResult ref =
        cells <= max_ref_cells ? reference_align(a) : reference_align_streamed(a);
    if (m.score > ref.score)
      return CheckResult::fail(fmt("reported score %lld beats the reference optimum %lld",
                                   static_cast<long long>(m.score),
                                   static_cast<long long>(ref.score)));
  }
  return {};
}

}  // namespace verify
}  // namespace manymap
