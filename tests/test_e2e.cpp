// End-to-end determinism harness: v2 repro round-trips, v1 compatibility,
// case-generator determinism, the whole-pipeline check on a clean case,
// the greedy whole-mapper minimizer, and the degraded-response audit
// regression (live oracle must sample degraded answers too).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sequence/dna.hpp"
#include "service/service.hpp"
#include "simulate/genome.hpp"
#include "simulate/read_sim.hpp"
#include "verify/e2e_fuzzer.hpp"

namespace manymap {
namespace verify {
namespace {

std::string regression_path(const std::string& name) {
  return std::string(MANYMAP_REGRESSION_DIR) + "/" + name;
}

/// A case with every optional knob set, so a round-trip exercises every
/// serialized key.
E2eCase full_case() {
  E2eCase c;
  c.seed = 42;
  c.cfg.ref_seed = 3;
  c.cfg.ref_len = 30'000;
  c.cfg.ref_contigs = 3;
  c.cfg.read_seed = 17;
  c.cfg.num_reads = 5;
  c.cfg.read_max_len = 1'500;
  c.cfg.band = 128;
  c.cfg.zdrop = 200;
  c.cfg.dirs_budget = 32'768;
  c.cfg.gpu = true;
  c.cfg.workers = {1, 4};
  c.cfg.shuffle_seed = 9;
  c.cfg.svc_resident_bytes = 65'536;
  c.cfg.svc_score_only_bytes = 1'048'576;
  c.cfg.verify_every = 2;
  c.cfg.fault_seed = 77;
  c.cfg.faults.push_back({"service.worker.compute", fault::FaultKind::kError, 4, 2, 0});
  c.cfg.faults.push_back({"service.queue.delay", fault::FaultKind::kSlow, 2, 0, 3});
  c.reads.push_back(encode_dna("ACGTACGTACGT"));
  c.reads.push_back(encode_dna("TTTTGGGGCCCCAAAA"));
  return c;
}

TEST(ReproV2, RoundTripsEveryField) {
  const E2eCase c = full_case();
  const std::string text = format_e2e_repro(c, "note line one\nnote line two");
  E2eCase back;
  std::string err;
  ASSERT_TRUE(parse_e2e_repro(text, &back, &err)) << err;

  EXPECT_EQ(back.seed, c.seed);
  const E2eConfig& a = back.cfg;
  const E2eConfig& b = c.cfg;
  EXPECT_EQ(a.ref_seed, b.ref_seed);
  EXPECT_EQ(a.ref_len, b.ref_len);
  EXPECT_EQ(a.ref_contigs, b.ref_contigs);
  EXPECT_EQ(a.read_seed, b.read_seed);
  EXPECT_EQ(a.num_reads, b.num_reads);
  EXPECT_EQ(a.read_max_len, b.read_max_len);
  EXPECT_EQ(a.band, b.band);
  EXPECT_EQ(a.zdrop, b.zdrop);
  EXPECT_EQ(a.dirs_budget, b.dirs_budget);
  EXPECT_EQ(a.gpu, b.gpu);
  EXPECT_EQ(a.workers, b.workers);
  EXPECT_EQ(a.shuffle_seed, b.shuffle_seed);
  EXPECT_EQ(a.svc_resident_bytes, b.svc_resident_bytes);
  EXPECT_EQ(a.svc_score_only_bytes, b.svc_score_only_bytes);
  EXPECT_EQ(a.verify_every, b.verify_every);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].site, b.faults[i].site);
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
    EXPECT_EQ(a.faults[i].one_in, b.faults[i].one_in);
    EXPECT_EQ(a.faults[i].max_fires, b.faults[i].max_fires);
    EXPECT_EQ(a.faults[i].delay_ms, b.faults[i].delay_ms);
  }
  EXPECT_EQ(back.reads, c.reads);

  // Formatting the parsed case reproduces the payload byte-for-byte
  // (notes aside): the format is canonical.
  const std::string again = format_e2e_repro(back, "");
  const std::string canonical = format_e2e_repro(c, "");
  EXPECT_EQ(again, canonical);
}

TEST(ReproV2, OptionalKeysAbsentParseAsDefaults) {
  E2eCase minimal;
  minimal.cfg.workers = {1};
  const std::string text = format_e2e_repro(minimal, "");
  // No optional knob is set, so none of their keys may appear.
  for (const char* key : {"\nband ", "\nzdrop ", "\ndirs_budget ", "\ngpu ", "\nsvc_resident ",
                          "\nsvc_score_only ", "\nfault_seed ", "\nfault ",
                          "\nread "})
    EXPECT_EQ(text.find(key), std::string::npos) << key;
  E2eCase back;
  std::string err;
  ASSERT_TRUE(parse_e2e_repro(text, &back, &err)) << err;
  EXPECT_EQ(back.cfg.band, 0);
  EXPECT_EQ(back.cfg.zdrop, 0);
  EXPECT_EQ(back.cfg.dirs_budget, 0u);
  EXPECT_FALSE(back.cfg.gpu);
  EXPECT_EQ(back.cfg.svc_resident_bytes, 0u);
  EXPECT_EQ(back.cfg.svc_score_only_bytes, 0u);
  EXPECT_EQ(back.cfg.fault_seed, 0u);
  EXPECT_TRUE(back.cfg.faults.empty());
  EXPECT_TRUE(back.reads.empty());
  EXPECT_EQ(back.cfg.workers, std::vector<u32>{1});
}

TEST(ReproV2, RejectsMalformed) {
  E2eCase out;
  std::string err;
  // Wrong header.
  EXPECT_FALSE(parse_e2e_repro("manymap-verify-repro v9\nkind e2e\n", &out, &err));
  // Missing kind.
  EXPECT_FALSE(parse_e2e_repro("manymap-verify-repro v2\nseed 1\n", &out, &err));
  EXPECT_NE(err.find("kind"), std::string::npos);
  // Unknown keys, including the deleted memory-ladder banded rung.
  EXPECT_FALSE(parse_e2e_repro("manymap-verify-repro v2\nkind e2e\nbogus 1\n", &out, &err));
  EXPECT_FALSE(
      parse_e2e_repro("manymap-verify-repro v2\nkind e2e\nsvc_banded 524288\n", &out, &err));
  // Bad fault kind.
  EXPECT_FALSE(parse_e2e_repro(
      "manymap-verify-repro v2\nkind e2e\nfault site.x explode 1 0 0\n", &out, &err));
  // Zero workers entry.
  EXPECT_FALSE(
      parse_e2e_repro("manymap-verify-repro v2\nkind e2e\nworkers 1 0\n", &out, &err));
}

TEST(ReproV2, V1FilesStillParseThroughLoadAny) {
  ReproKind kind;
  CaseSpec kernel;
  E2eCase e2e;
  std::string err;
  ASSERT_TRUE(load_repro_any(regression_path("int8_wrap_diff_scalar_score.repro"), &kind,
                             &kernel, &e2e, &err))
      << err;
  EXPECT_EQ(kind, ReproKind::kKernel);

  ASSERT_TRUE(load_repro_any(regression_path("e2e_degraded_audit.repro"), &kind, &kernel,
                             &e2e, &err))
      << err;
  EXPECT_EQ(kind, ReproKind::kE2e);
  EXPECT_EQ(e2e.cfg.svc_score_only_bytes, 1u);
}

TEST(E2eCaseGen, Deterministic) {
  for (u64 seed : {1ULL, 7ULL, 23ULL}) {
    const E2eCase a = make_e2e_case(seed);
    const E2eCase b = make_e2e_case(seed);
    EXPECT_EQ(format_e2e_repro(a, ""), format_e2e_repro(b, "")) << "seed " << seed;
  }
}

TEST(E2eCheck, CleanSeedPasses) {
  // Small hand-built case: baseline + streamed rung + two service worker
  // counts. Keeps the tier-1 suite fast while still crossing every layer.
  E2eCase c;
  c.cfg.ref_len = 20'000;
  c.cfg.ref_contigs = 1;
  c.cfg.num_reads = 4;
  c.cfg.read_max_len = 1'000;
  c.cfg.dirs_budget = 16'384;
  c.cfg.workers = {1, 2};
  const CheckResult r = check_e2e_case(c);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(E2eCheck, DegradedAuditRegressionPasses) {
  // The committed repro for the degraded-audit gap: a service pinned to
  // score-only must still audit its (degraded) answers. Fails if
  // maybe_verify_live ever re-grows the early return on resp.degraded.
  ReproKind kind;
  CaseSpec kernel;
  E2eCase c;
  std::string err;
  ASSERT_TRUE(load_repro_any(regression_path("e2e_degraded_audit.repro"), &kind, &kernel, &c,
                             &err))
      << err;
  ASSERT_EQ(kind, ReproKind::kE2e);
  const CheckResult r = check_e2e_case(c);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(E2eMinimize, ShrinksReadsAndRelaxesConfig) {
  // Synthetic failure predicate: the case "fails" while it still has ≥2
  // reads or any chaos faults armed. The minimizer must drop reads to the
  // smallest failing set and strip the faults-irrelevant knobs it can,
  // while every intermediate step still satisfies the predicate.
  E2eCase c = make_e2e_case(5);
  c.cfg.num_reads = 6;
  c.cfg.gpu = true;
  c.cfg.faults.push_back({"service.worker.compute", fault::FaultKind::kError, 4, 2, 0});
  const auto pred = [](const E2eCase& cand) -> CheckResult {
    const std::size_t n =
        cand.reads.empty() ? cand.cfg.num_reads : cand.reads.size();
    if (n >= 2) return CheckResult::fail("synthetic: still has 2+ reads");
    return CheckResult{};
  };
  const E2eCase small = minimize_e2e_case(c, pred);
  // Shrunk to the smallest read set the predicate still rejects... none —
  // the predicate passes at 1 read, so the minimizer must stop at 2.
  ASSERT_FALSE(small.reads.empty());  // minimizer materializes reads
  EXPECT_EQ(small.reads.size(), 2u);
  // Config relaxations that keep the predicate failing are all taken.
  EXPECT_TRUE(small.cfg.faults.empty());
  EXPECT_FALSE(small.cfg.gpu);
  EXPECT_EQ(small.cfg.workers, std::vector<u32>{1});
  // A passing case comes back untouched.
  E2eCase clean;
  const E2eCase same = minimize_e2e_case(
      clean, [](const E2eCase&) { return CheckResult{}; });
  EXPECT_EQ(format_e2e_repro(same, ""), format_e2e_repro(clean, ""));
}

TEST(ServiceDegradedAudit, VerifiedDegradedCounted) {
  // Service-level unit for satellite coverage: pin the memory ladder to
  // score-only, audit every response, and require the degraded-audit
  // counter to move with zero divergences.
  GenomeParams gp;
  gp.total_length = 20'000;
  gp.num_contigs = 1;
  gp.seed = 5;
  const Reference ref = generate_genome(gp);
  ReadSimParams rp;
  rp.num_reads = 6;
  rp.seed = 6;
  rp.profile.max_length = 800;
  std::vector<Sequence> reads;
  for (auto& sr : ReadSimulator(ref, rp).simulate()) reads.push_back(std::move(sr.read));
  ASSERT_FALSE(reads.empty());

  ServiceConfig cfg;
  cfg.map = MapOptions::map_pb();
  cfg.workers_per_shard = 1;
  cfg.mem.score_only_above_bytes = 1;  // every request sheds to score-only
  cfg.verify_sample_every = 1;
  cfg.verify_max_cells = 8'000'000;
  AlignmentService svc(ref, cfg);
  for (const Sequence& r : reads) {
    MapRequest req;
    req.read = r;
    const MapResponse resp = svc.map_sync(std::move(req));
    ASSERT_EQ(resp.status, RequestStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.degraded || resp.degrade != DegradeLevel::kNone);
  }
  svc.shutdown();
  const auto m = svc.metrics().snapshot();
  EXPECT_GT(m.verified_degraded, 0u);
  EXPECT_EQ(m.verify_divergences, 0u);
}

}  // namespace
}  // namespace verify
}  // namespace manymap
