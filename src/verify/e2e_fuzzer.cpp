// End-to-end determinism harness: replays whole serving scenarios through
// the real Mapper::map and AlignmentService paths and asserts the contract
// spelled out in e2e.hpp. See check_e2e_case below for the phase order.
#include "verify/e2e_fuzzer.hpp"

#include <algorithm>
#include <future>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/mapper.hpp"
#include "core/options.hpp"
#include "gpu/batch_mapper.hpp"
#include "sequence/dna.hpp"
#include "service/service.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"
#include "verify/fuzzer.hpp"

namespace manymap {
namespace verify {

namespace {

/// Cells cap for the exact reference replay inside the live audits: covers
/// the largest case the generator draws (~2 kbp reads -> ~4M-cell spans)
/// with headroom; larger spans stream.
constexpr u64 kAuditMaxCells = 8'000'000;

struct Workload {
  Reference ref;
  std::vector<Sequence> reads;
};

std::vector<Sequence> synthesize_reads(const Reference& ref, const E2eConfig& g) {
  ReadSimParams rp;
  rp.num_reads = g.num_reads;
  rp.seed = g.read_seed;
  rp.profile.max_length = g.read_max_len;
  rp.profile.min_length = std::min<u32>(rp.profile.min_length, g.read_max_len);
  ReadSimulator sim(ref, rp);
  std::vector<Sequence> reads;
  for (auto& sr : sim.simulate()) reads.push_back(std::move(sr.read));
  return reads;
}

Workload materialize(const E2eCase& c) {
  GenomeParams gp;
  gp.total_length = c.cfg.ref_len;
  gp.num_contigs = c.cfg.ref_contigs;
  gp.seed = c.cfg.ref_seed;
  // Repeat content scaled to the tens-of-kbp genomes the cases draw (the
  // defaults assume megabase genomes and would tile a 30 kbp one).
  gp.repeat_families = 2;
  gp.repeat_copies = 4;
  gp.repeat_length = 300;
  Workload w;
  w.ref = generate_genome(gp);
  if (!c.reads.empty()) {
    for (std::size_t i = 0; i < c.reads.size(); ++i) {
      Sequence s;
      s.name = "r" + std::to_string(i);
      s.codes = c.reads[i];
      w.reads.push_back(std::move(s));
    }
  } else {
    w.reads = synthesize_reads(w.ref, c.cfg);
  }
  return w;
}

bool mappings_equal(const Mapping& a, const Mapping& b) {
  return a.qstart == b.qstart && a.qend == b.qend && a.rev == b.rev && a.rid == b.rid &&
         a.tstart == b.tstart && a.tend == b.tend && a.score == b.score &&
         a.chain_score == b.chain_score && a.mapq == b.mapq && a.primary == b.primary &&
         a.matches == b.matches && a.align_length == b.align_length && a.cigar == b.cigar;
}

std::string mapping_brief(const Mapping& m) {
  std::ostringstream o;
  o << (m.rev ? '-' : '+') << m.rid << ":[" << m.tstart << ',' << m.tend << ") q[" << m.qstart
    << ',' << m.qend << ") score=" << m.score << " mapq=" << m.mapq
    << " cigar=" << (m.cigar.empty() ? std::string("-") : m.cigar.to_string());
  return o.str();
}

CheckResult compare_mapping_lists(const std::string& what, std::size_t read_idx,
                                  const std::vector<Mapping>& got,
                                  const std::vector<Mapping>& want) {
  std::ostringstream where;
  where << what << " read " << read_idx;
  if (got.size() != want.size()) {
    std::ostringstream o;
    o << where.str() << ": " << got.size() << " mappings, baseline has " << want.size();
    return CheckResult::fail(o.str());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!mappings_equal(got[i], want[i])) {
      std::ostringstream o;
      o << where.str() << " mapping " << i << ": " << mapping_brief(got[i])
        << " != " << mapping_brief(want[i]);
      return CheckResult::fail(o.str());
    }
  }
  return {};
}

/// Route one mapping through the live oracle exactly as the service's
/// sampling does: full audit when a CIGAR exists, span audit otherwise.
CheckResult audit_mapping(const Reference& ref, const Sequence& read,
                          const std::vector<u8>& rc, const Mapping& m,
                          const ScoreParams& scores) {
  LiveMapping lm;
  lm.contig = &ref.contig(m.rid).codes;
  lm.tstart = m.tstart;
  lm.tend = m.tend;
  lm.query = m.rev ? &rc : &read.codes;
  lm.qstart = m.rev ? m.qlen - m.qend : m.qstart;
  lm.qend = m.rev ? m.qlen - m.qstart : m.qend;
  lm.score = m.score;
  lm.cigar = &m.cigar;
  return m.cigar.empty() ? check_live_spans(lm)
                         : check_live_mapping(lm, scores, kAuditMaxCells);
}

std::vector<u32> shuffled_order(std::size_t n, u64 seed) {
  std::vector<u32> order(n);
  std::iota(order.begin(), order.end(), 0u);
  XorShift rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

ServiceConfig make_service_cfg(const E2eConfig& g, const MapOptions& opt, u32 workers,
                               bool with_mem, bool with_gpu) {
  ServiceConfig cfg;
  cfg.map = opt;
  cfg.workers_per_shard = workers;
  cfg.paf_with_cigar = true;
  cfg.verify_sample_every = g.verify_every;
  cfg.verify_max_cells = kAuditMaxCells;
  if (with_mem) {
    cfg.mem.resident_request_bytes = g.svc_resident_bytes;
    cfg.mem.score_only_above_bytes = g.svc_score_only_bytes;
  }
  if (with_gpu) {
    cfg.gpu.enabled = true;
    cfg.gpu.batch.layout = opt.layout;
    cfg.gpu.batch.num_streams = 4;
    cfg.gpu.batch.min_gpu_cells = 1024;
  }
  return cfg;
}

struct ServiceRun {
  std::vector<MapResponse> responses;  ///< indexed by read, not submit order
  MetricsSnapshot metrics;
};

ServiceRun run_service(const Reference& ref, const MinimizerIndex& index,
                       const std::vector<Sequence>& reads, const ServiceConfig& cfg,
                       const std::vector<u32>& order) {
  AlignmentService svc(ref, index, cfg);
  std::vector<std::future<MapResponse>> futures(reads.size());
  for (u32 idx : order) {
    MapRequest req;
    req.id = idx;
    req.read = reads[idx];
    futures[idx] = svc.submit_wait(std::move(req));
  }
  ServiceRun run;
  run.responses.resize(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) run.responses[i] = futures[i].get();
  svc.shutdown();
  run.metrics = svc.metrics().snapshot();
  return run;
}

bool has_mem_ladder(const E2eConfig& g) {
  return g.svc_resident_bytes != 0 || g.svc_score_only_bytes != 0;
}

CheckResult check_e2e_case_impl(const E2eCase& c) {
  const E2eConfig& g = c.cfg;
  const Workload w = materialize(c);
  const MapOptions opt = MapOptions::map_pb();
  const Mapper mapper(w.ref, opt);

  std::vector<std::vector<u8>> rcs;
  rcs.reserve(w.reads.size());
  for (const Sequence& r : w.reads) rcs.push_back(reverse_complement(r.codes));

  // --- phase 1: resident baseline + live audit; score-only baseline -----
  std::vector<std::vector<Mapping>> base(w.reads.size());
  std::vector<std::vector<Mapping>> base_so(w.reads.size());
  for (std::size_t i = 0; i < w.reads.size(); ++i) {
    base[i] = mapper.map(w.reads[i], MapCall{});
    for (const Mapping& m : base[i]) {
      const CheckResult a = audit_mapping(w.ref, w.reads[i], rcs[i], m, opt.scores);
      if (!a.ok) {
        std::ostringstream o;
        o << "baseline audit read " << i << ": " << a.failure;
        return CheckResult::fail(o.str());
      }
    }
    MapCall so;
    so.score_only = true;
    base_so[i] = mapper.map(w.reads[i], so);
    for (const Mapping& m : base_so[i]) {
      const CheckResult a = audit_mapping(w.ref, w.reads[i], rcs[i], m, opt.scores);
      if (!a.ok) {
        std::ostringstream o;
        o << "score-only baseline audit read " << i << ": " << a.failure;
        return CheckResult::fail(o.str());
      }
    }
    // Locus consistency between the full and score-only views: both derive
    // from the same best chain, so the primary mappings must name the same
    // strand of the same contig with intersecting reference spans (the
    // exact endpoints legitimately differ — DP extension vs chain bounds).
    if (!base[i].empty() && !base_so[i].empty()) {
      const Mapping& f = base[i].front();
      const Mapping& s = base_so[i].front();
      if (f.rid != s.rid || f.rev != s.rev || s.tend <= f.tstart || f.tend <= s.tstart) {
        std::ostringstream o;
        o << "score-only primary locus read " << i << ": " << mapping_brief(s)
          << " does not overlap full baseline " << mapping_brief(f);
        return CheckResult::fail(o.str());
      }
    }
  }

  // --- phase 2: degradation rungs against the baseline ------------------
  if (g.dirs_budget != 0) {
    for (std::size_t i = 0; i < w.reads.size(); ++i) {
      MapCall call;
      call.dirs_budget_bytes = g.dirs_budget;
      const CheckResult r =
          compare_mapping_lists("streamed-dirs rung", i, mapper.map(w.reads[i], call), base[i]);
      if (!r.ok) return r;
    }
  }
  if (g.band > 0) {
    for (std::size_t i = 0; i < w.reads.size(); ++i) {
      MapCall call;
      call.band = g.band;
      call.zdrop = g.zdrop;
      const std::vector<Mapping> got = mapper.map(w.reads[i], call);
      if (g.zdrop == 0) {
        // Exact by the auto-full-fallback contract: any band_hit reruns
        // unbanded, so the band choice never changes the answer.
        const CheckResult r = compare_mapping_lists("banded rung", i, got, base[i]);
        if (!r.ok) return r;
      } else {
        // Advisory: zdropped kernels return heuristic paths the mapper
        // does not rerun, so the answer may differ — but every mapping
        // must still survive the full live audit.
        for (const Mapping& m : got) {
          const CheckResult a = audit_mapping(w.ref, w.reads[i], rcs[i], m, opt.scores);
          if (!a.ok) {
            std::ostringstream o;
            o << "banded+zdrop rung audit read " << i << ": " << a.failure;
            return CheckResult::fail(o.str());
          }
        }
      }
    }
  }
  if (g.gpu) {
    gpu::GpuBatchConfig gc;
    gc.layout = opt.layout;
    gc.num_streams = 2;
    gc.min_gpu_cells = 1024;  // low cutoff so the device actually runs
    gpu::GpuBatchMapper gm(gc);
    const std::function<AlignResult(const DiffArgs&)> device_kernel =
        [&gm](const DiffArgs& a) { return gm.align_segment(a, 0).result; };
    for (std::size_t i = 0; i < w.reads.size(); ++i) {
      MapCall call;
      call.kernel_override = &device_kernel;
      const CheckResult r =
          compare_mapping_lists("gpu rung", i, mapper.map(w.reads[i], call), base[i]);
      if (!r.ok) return r;
    }
  }

  // --- phase 3: service determinism across workers and orders -----------
  std::vector<std::string> first_paf;
  for (std::size_t wi = 0; wi < g.workers.size(); ++wi) {
    const u32 workers = g.workers[wi];
    const bool gpu_run = g.gpu && wi + 1 == g.workers.size();
    const ServiceConfig cfg = make_service_cfg(g, opt, workers, /*with_mem=*/false, gpu_run);
    std::vector<u32> order(w.reads.size());
    std::iota(order.begin(), order.end(), 0u);
    if (wi > 0) order = shuffled_order(w.reads.size(), g.shuffle_seed + wi);
    const ServiceRun run = run_service(w.ref, mapper.index(), w.reads, cfg, order);
    for (std::size_t i = 0; i < w.reads.size(); ++i) {
      const MapResponse& resp = run.responses[i];
      std::ostringstream where;
      where << "service w=" << workers;
      if (resp.status != RequestStatus::kOk)
        return CheckResult::fail(where.str() + " read " + std::to_string(i) + ": status " +
                                 std::string(to_string(resp.status)) + " " + resp.error);
      if (resp.degraded || resp.degrade != DegradeLevel::kNone)
        return CheckResult::fail(where.str() + " read " + std::to_string(i) +
                                 ": unexpected degraded response");
      const CheckResult r = compare_mapping_lists(where.str(), i, resp.mappings, base[i]);
      if (!r.ok) return r;
      if (wi == 0) {
        first_paf.push_back(resp.paf);
      } else if (resp.paf != first_paf[i]) {
        return CheckResult::fail(where.str() + " read " + std::to_string(i) +
                                 ": PAF differs across worker counts");
      }
    }
    if (run.metrics.verify_divergences != 0)
      return CheckResult::fail("service w=" + std::to_string(workers) + ": " +
                               std::to_string(run.metrics.verify_divergences) +
                               " live-oracle divergences");
  }

  // --- phase 4: memory-ladder service run --------------------------------
  if (has_mem_ladder(g)) {
    const ServiceConfig cfg =
        make_service_cfg(g, opt, g.workers.back(), /*with_mem=*/true, /*with_gpu=*/false);
    std::vector<u32> order(w.reads.size());
    std::iota(order.begin(), order.end(), 0u);
    const ServiceRun run = run_service(w.ref, mapper.index(), w.reads, cfg, order);
    bool any_degraded = false;
    for (std::size_t i = 0; i < w.reads.size(); ++i) {
      const MapResponse& resp = run.responses[i];
      if (resp.status != RequestStatus::kOk)
        return CheckResult::fail("memory-ladder read " + std::to_string(i) + ": status " +
                                 std::string(to_string(resp.status)) + " " + resp.error);
      any_degraded = any_degraded || resp.degraded || resp.degrade != DegradeLevel::kNone;
      const bool score_only = resp.degraded || resp.degrade == DegradeLevel::kScoreOnly;
      // Streamed-dirs answers are bit-identical by contract; score-only
      // answers must equal the direct score-only baseline bit-for-bit.
      const CheckResult r =
          compare_mapping_lists(score_only ? "memory-ladder score-only" : "memory-ladder",
                                i, resp.mappings, score_only ? base_so[i] : base[i]);
      if (!r.ok) return r;
    }
    if (run.metrics.verify_divergences != 0)
      return CheckResult::fail("memory-ladder: " +
                               std::to_string(run.metrics.verify_divergences) +
                               " live-oracle divergences");
    // The satellite contract this harness exists to enforce: degraded
    // responses are audited, not exempted.
    if (any_degraded && g.verify_every == 1 && run.metrics.verified_degraded == 0)
      return CheckResult::fail(
          "memory-ladder: degraded responses were served but never audited "
          "(verified_degraded == 0)");
  }

  // --- phase 5: chaos composition under live auditing --------------------
  if (!g.faults.empty()) {
    fault::FaultPlan plan(g.fault_seed != 0 ? g.fault_seed : c.seed);
    for (const E2eFault& f : g.faults) plan.arm(f.to_spec());
    {
      fault::ScopedPlan guard(&plan);
      const ServiceConfig cfg =
          make_service_cfg(g, opt, g.workers.back(), has_mem_ladder(g), g.gpu);
      const ServiceRun run =
          run_service(w.ref, mapper.index(), w.reads, cfg,
                      shuffled_order(w.reads.size(), g.shuffle_seed + 97));
      for (std::size_t i = 0; i < w.reads.size(); ++i) {
        const MapResponse& resp = run.responses[i];
        // Which request a fault lands on depends on thread interleaving,
        // so statuses are not required to be deterministic — only terminal
        // and structured, with kOk answers still honoring the contract.
        if (resp.status == RequestStatus::kFailed) {
          if (resp.error.empty())
            return CheckResult::fail("chaos read " + std::to_string(i) +
                                     ": kFailed without an error message");
          continue;
        }
        if (resp.status != RequestStatus::kOk)
          return CheckResult::fail("chaos read " + std::to_string(i) + ": status " +
                                   std::string(to_string(resp.status)));
        const bool score_only = resp.degraded || resp.degrade == DegradeLevel::kScoreOnly;
        const CheckResult r =
            compare_mapping_lists(score_only ? "chaos score-only" : "chaos", i,
                                  resp.mappings, score_only ? base_so[i] : base[i]);
        if (!r.ok) return r;
      }
      if (run.metrics.verify_divergences != 0)
        return CheckResult::fail("chaos: " + std::to_string(run.metrics.verify_divergences) +
                                 " live-oracle divergences");
    }
    // Post-chaos: with the plan gone the mapper answers cleanly again.
    const CheckResult r =
        compare_mapping_lists("post-chaos replay", 0, mapper.map(w.reads[0], MapCall{}), base[0]);
    if (!r.ok) return r;
  }
  return {};
}

}  // namespace

E2eCase make_e2e_case(u64 seed) {
  XorShift rng(seed * 0x9e3779b97f4a7c15ULL + 0xe2e);
  E2eCase c;
  c.seed = seed;
  E2eConfig& g = c.cfg;
  g.ref_seed = rng.next();
  g.ref_len = 20'000 + rng.below(40'001);
  g.ref_contigs = 1 + static_cast<u32>(rng.below(3));
  g.read_seed = rng.next();
  g.num_reads = 4 + static_cast<u32>(rng.below(5));
  g.read_max_len = 500 + static_cast<u32>(rng.below(1'501));
  if (rng.chance(1, 2)) {
    g.band = 64 + static_cast<i32>(rng.below(193));
    if (rng.chance(1, 4)) g.zdrop = 100 + static_cast<i32>(rng.below(301));
  }
  if (rng.chance(1, 2)) g.dirs_budget = (u64{16} << 10) << rng.below(3);
  g.gpu = rng.chance(1, 3);
  g.workers = {1, 2, 8};
  g.shuffle_seed = rng.next();
  if (rng.chance(1, 2)) {
    g.svc_resident_bytes = (u64{32} << 10) << rng.below(3);
    if (rng.chance(1, 3)) g.svc_score_only_bytes = (u64{1} << 20) + rng.below(u64{2} << 20);
  }
  g.verify_every = 1;
  if (rng.chance(1, 4)) {
    g.fault_seed = rng.next();
    struct Cand {
      const char* site;
      fault::FaultKind kind;
      u32 one_in, max_fires, delay_ms;
    };
    // Absorbed sites (the fallback/degradation ladders must hide them)
    // plus the worker-compute site (fails structurally) and a scheduler
    // delay (reorders batches without changing answers). No kStall — the
    // watchdog path has its own dedicated chaos coverage and its
    // stall_bound (100 s under live audits) would dominate the sweep.
    static constexpr Cand kCands[] = {
        {"align.dp.alloc", fault::FaultKind::kError, 3, 0, 0},
        {"align.dirs.spill", fault::FaultKind::kError, 3, 0, 0},
        {"service.worker.compute", fault::FaultKind::kError, 4, 2, 0},
        {"service.queue.delay", fault::FaultKind::kSlow, 2, 0, 2},
        {"gpu.stage_oom", fault::FaultKind::kError, 2, 0, 0},
        {"gpu.launch", fault::FaultKind::kError, 3, 0, 0},
    };
    constexpr std::size_t kNumCands = sizeof(kCands) / sizeof(kCands[0]);
    const std::size_t n = 1 + rng.below(3);
    std::vector<std::size_t> picks;
    while (picks.size() < n) {
      const std::size_t p = rng.below(kNumCands);
      if (std::find(picks.begin(), picks.end(), p) == picks.end()) picks.push_back(p);
    }
    for (const std::size_t p : picks) {
      const Cand& cand = kCands[p];
      g.faults.push_back({cand.site, cand.kind, cand.one_in, cand.max_fires, cand.delay_ms});
    }
  }
  return c;
}

CheckResult check_e2e_case(const E2eCase& c) {
  // A fuzzer harness must never die on an unexpected throw — report it as
  // the divergence it is.
  try {
    return check_e2e_case_impl(c);
  } catch (const std::exception& e) {
    return CheckResult::fail(std::string("unexpected exception: ") + e.what());
  }
}

E2eCase minimize_e2e_case(const E2eCase& input,
                          const std::function<CheckResult(const E2eCase&)>& check) {
  const auto fails = [&](const E2eCase& cand) {
    return !(check ? check(cand) : check_e2e_case(cand)).ok;
  };
  if (!fails(input)) return input;
  E2eCase best = input;

  // Materialize the read set so individual reads can be dropped/trimmed;
  // keep the explicit form only if it still reproduces the failure.
  if (best.reads.empty()) {
    E2eCase cand = best;
    const Workload w = materialize(best);
    for (const Sequence& r : w.reads) cand.reads.push_back(r.codes);
    if (fails(cand)) best = std::move(cand);
  }

  // Greedy chunked read drops: halving chunk sizes, re-running at every
  // step, exactly like the kernel minimizer's sequence trimming.
  for (std::size_t chunk = std::max<std::size_t>(1, best.reads.size() / 2); chunk >= 1;) {
    bool removed = false;
    for (std::size_t at = 0; at + chunk <= best.reads.size();) {
      if (best.reads.size() <= chunk) break;  // keep at least one read
      E2eCase cand = best;
      cand.reads.erase(cand.reads.begin() + static_cast<std::ptrdiff_t>(at),
                       cand.reads.begin() + static_cast<std::ptrdiff_t>(at + chunk));
      if (fails(cand)) {
        best = std::move(cand);
        removed = true;
      } else {
        at += chunk;
      }
    }
    if (chunk == 1 && !removed) break;
    if (!removed) chunk /= 2;
  }

  // Trim surviving reads from the tail.
  for (std::size_t i = 0; i < best.reads.size(); ++i) {
    while (best.reads[i].size() > 64) {
      E2eCase cand = best;
      cand.reads[i].resize(cand.reads[i].size() / 2);
      if (!fails(cand)) break;
      best = std::move(cand);
    }
  }

  // Shrink the reference.
  while (best.cfg.ref_len > 8'000) {
    E2eCase cand = best;
    cand.cfg.ref_len /= 2;
    if (!fails(cand)) break;
    best = std::move(cand);
  }

  // Relax configuration, most-disruptive knobs first, keeping any step
  // that still fails.
  const auto try_step = [&](const std::function<void(E2eCase&)>& mutate) {
    E2eCase cand = best;
    mutate(cand);
    if (fails(cand)) best = std::move(cand);
  };
  try_step([](E2eCase& x) {
    x.cfg.faults.clear();
    x.cfg.fault_seed = 0;
  });
  try_step([](E2eCase& x) { x.cfg.gpu = false; });
  try_step([](E2eCase& x) {
    x.cfg.svc_resident_bytes = 0;
    x.cfg.svc_score_only_bytes = 0;
  });
  try_step([](E2eCase& x) {
    x.cfg.band = 0;
    x.cfg.zdrop = 0;
  });
  try_step([](E2eCase& x) { x.cfg.dirs_budget = 0; });
  try_step([](E2eCase& x) { x.cfg.workers = {1}; });
  return best;
}

E2eStats run_e2e_sweep(const E2eSweepOptions& opt,
                       const std::function<void(const E2eDivergence&)>& on_divergence) {
  E2eStats stats;
  for (u64 seed = opt.first_seed; seed < opt.first_seed + opt.seeds; ++seed) {
    const E2eCase c = make_e2e_case(seed);
    ++stats.cases_run;
    stats.service_runs += c.cfg.workers.size();
    if (has_mem_ladder(c.cfg)) ++stats.service_runs;
    if (!c.cfg.faults.empty()) {
      ++stats.service_runs;
      ++stats.chaos_runs;
    }
    const CheckResult r = check_e2e_case(c);
    if (r.ok) continue;
    E2eDivergence d;
    d.seed = seed;
    d.failure = r.failure;
    d.c = opt.minimize ? minimize_e2e_case(c) : c;
    if (on_divergence) on_divergence(d);
    stats.divergences.push_back(std::move(d));
  }
  return stats;
}

}  // namespace verify
}  // namespace manymap
